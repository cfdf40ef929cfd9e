//! Booting the serving topology in process: base training, engine
//! replicas behind the shard router, and the online loop (ingest
//! listener, interaction log, `FineTuner`).
//!
//! The model is the same in every workload and on every seed: the graph
//! and the training seed are fixed here, and `--seed` only drives the
//! traffic. Replicas open with the production serving configuration —
//! IVF and int8 tables behind their build-time gates — and the benchmark
//! records which mode the gates chose instead of forcing one.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use graphaug_core::GraphAugConfig;
use graphaug_data::{generate, SyntheticConfig};
use graphaug_graph::InteractionGraph;
use graphaug_ingest::{start_ingest, IngestHandle, LogWriter};
use graphaug_router::{start as start_router, Router, RouterConfig, RouterHandle};
use graphaug_runtime::{FineTuner, Runtime, RuntimeConfig};
use graphaug_serve::{
    serve, Engine, IvfParams, ModelSource, QuantParams, ServeClient, ServerHandle,
};

/// Users in the synthetic graph.
pub const N_USERS: usize = 4000;
/// Items in the synthetic graph.
pub const N_ITEMS: usize = 10_000;
/// Target interactions in the synthetic graph.
pub const N_INTERACTIONS: usize = 40_000;
const GRAPH_SEED: u64 = 11;
const MODEL_SEED: u64 = 5;
/// Base training: epochs × steps per epoch, checkpointed every epoch.
const BASE_EPOCHS: usize = 2;
const BASE_STEPS: usize = 4;
/// Records per fine-tune window.
pub const WINDOW: u64 = 32;
/// Training steps per fine-tune round.
pub const ROUND_STEPS: usize = 1;
const SEGMENT_RECORDS: u64 = 4096;

/// Client-side socket timeouts: a hung server shows up as a failed
/// request instead of a hung benchmark.
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Opens a protocol connection with the benchmark's timeouts.
pub fn connect(addr: &str) -> std::io::Result<ServeClient> {
    ServeClient::connect_with_timeouts(addr, CONNECT_TIMEOUT, Some(IO_TIMEOUT))
}

/// The copies a traced run replays requests against, so each layer can be
/// timed from the benchmark around its public entry point without
/// disturbing the replicas under measurement.
pub struct Twins {
    /// Per shard: a second replica server on the same checkpoint, fed the
    /// same sub-requests as the real one (so its cache state matches).
    pub server_addrs: Vec<String>,
    servers: Vec<ServerHandle>,
    server_engines: Vec<Arc<Engine>>,
    /// Per shard: an in-process engine on the same checkpoint, fed the
    /// same sub-requests again.
    pub engines: Vec<Arc<Engine>>,
    /// A log writer on the same filesystem as the real log.
    pub log: LogWriter,
}

impl Twins {
    /// Every twin engine, for mirroring hot reloads.
    pub fn all_engines(&self) -> impl Iterator<Item = &Arc<Engine>> {
        self.server_engines.iter().chain(&self.engines)
    }
}

/// One booted topology.
pub struct Topology {
    dir: PathBuf,
    /// Checkpoint directory the trainer and the replicas share.
    pub ckpt_dir: PathBuf,
    /// Interaction log directory.
    pub log_dir: PathBuf,
    /// The base training graph.
    pub graph: InteractionGraph,
    /// Model hyperparameters of the base run.
    pub cfg: GraphAugConfig,
    /// The serving replicas, one per shard.
    pub replicas: Vec<Arc<Engine>>,
    /// Their listen addresses.
    pub replica_addrs: Vec<String>,
    servers: Vec<ServerHandle>,
    /// Its public address.
    pub router_addr: String,
    router_handle: Option<RouterHandle>,
    /// The ingest listener's address.
    pub ingest_addr: String,
    ingest: Option<IngestHandle>,
    /// The incremental trainer.
    pub tuner: FineTuner,
    /// Replay targets (traced runs only).
    pub twins: Option<Twins>,
    /// Base training steps run in setup, and the seconds they took.
    pub train_steps: usize,
    pub train_secs: f64,
}

/// The model every workload serves.
pub fn base_config() -> GraphAugConfig {
    GraphAugConfig::new()
        .seed(MODEL_SEED)
        .epochs(BASE_EPOCHS)
        .steps_per_epoch(BASE_STEPS)
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Boots a topology with `shards` single-replica shards under `dir`
/// (created fresh). `traced` also builds the replay twins.
pub fn boot(dir: &Path, shards: usize, traced: bool) -> Result<Topology, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| err("create work dir", e))?;
    let ckpt_dir = dir.join("ckpt");
    let log_dir = dir.join("log");

    let graph = generate(&SyntheticConfig::new(N_USERS, N_ITEMS, N_INTERACTIONS).seed(GRAPH_SEED));
    let cfg = base_config();
    let t = Instant::now();
    let report = Runtime::new(
        RuntimeConfig::new(cfg.clone()).checkpoint_dir(&ckpt_dir),
        &graph,
    )
    .and_then(|mut rt| rt.run())
    .map_err(|e| err("base training", e))?;
    let train_secs = t.elapsed().as_secs_f64();

    let log = Arc::new(Mutex::new(
        LogWriter::open(&log_dir, SEGMENT_RECORDS).map_err(|e| err("open log", e))?,
    ));
    let source = ModelSource::new(cfg.clone(), graph.clone(), &ckpt_dir)
        .ann(IvfParams::new())
        .quant(QuantParams::new())
        .log_dir(&log_dir);
    let open = || {
        Engine::open(source.clone())
            .map(Arc::new)
            .map_err(|e| err("open replica", e))
    };
    let mut replicas = Vec::new();
    let mut servers = Vec::new();
    for _ in 0..shards {
        let engine = open()?;
        servers.push(serve(engine.clone(), "127.0.0.1:0").map_err(|e| err("serve", e))?);
        replicas.push(engine);
    }
    let replica_addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    let router = Router::new(RouterConfig::new(replica_addrs.clone()));
    let router_handle =
        start_router(router.clone(), "127.0.0.1:0").map_err(|e| err("router", e))?;
    let router_addr = router_handle.addr().to_string();

    let ingest = start_ingest(log, graph.n_users(), graph.n_items(), "127.0.0.1:0")
        .map_err(|e| err("ingest listener", e))?;
    let tune_cfg =
        RuntimeConfig::new(cfg.clone().steps_per_epoch(ROUND_STEPS)).checkpoint_dir(&ckpt_dir);
    let tuner =
        FineTuner::open(tune_cfg, &graph, &log_dir, WINDOW).map_err(|e| err("fine-tuner", e))?;

    let twins = if traced {
        let mut t = Twins {
            server_addrs: Vec::new(),
            servers: Vec::new(),
            server_engines: Vec::new(),
            engines: Vec::new(),
            log: LogWriter::open(&dir.join("twin-log"), SEGMENT_RECORDS)
                .map_err(|e| err("open twin log", e))?,
        };
        for _ in 0..shards {
            let engine = open()?;
            let server = serve(engine.clone(), "127.0.0.1:0").map_err(|e| err("serve twin", e))?;
            t.server_addrs.push(server.addr().to_string());
            t.servers.push(server);
            t.server_engines.push(engine);
            t.engines.push(open()?);
        }
        Some(t)
    } else {
        None
    };

    // Ready once a request goes all the way through the router.
    let mut c = connect(&router_addr).map_err(|e| err("connect router", e))?;
    if !c.ping().map_err(|e| err("ping router", e))? {
        return Err("router did not answer PONG".into());
    }
    c.quit();

    Ok(Topology {
        dir: dir.to_path_buf(),
        ckpt_dir,
        log_dir,
        graph,
        cfg,
        replicas,
        replica_addrs,
        servers,
        router_addr,
        router_handle: Some(router_handle),
        ingest_addr: ingest.addr().to_string(),
        ingest: Some(ingest),
        tuner,
        twins,
        train_steps: report.step_losses.len(),
        train_secs,
    })
}

impl Topology {
    /// Which scorer the replicas' gates chose for `REC`.
    pub fn served_mode(&self) -> String {
        let t = self.replicas[0].tables();
        let quant = t.quant().is_some_and(|q| q.enabled());
        let ann = t.ann().is_some_and(|a| a.enabled());
        let mut mode = match (quant, t.quant().and_then(|q| q.ivf()).is_some(), ann) {
            (true, true, _) => "quant+ivf".to_string(),
            (true, false, _) => "quant".to_string(),
            (false, _, true) => "ivf".to_string(),
            (false, _, false) => "exact".to_string(),
        };
        if let Some(a) = t.ann() {
            mode.push_str(&format!(" (ivf recall {:.3}", a.build_recall()));
            if let Some(q) = t.quant() {
                mode.push_str(&format!(", int8 drift {:.3}", q.build_drift()));
            }
            mode.push_str(", floors 0.9)");
        }
        mode
    }

    /// Stops every listener and removes the work directory. Clients must
    /// be closed first so connection threads see EOF and exit.
    pub fn shutdown(mut self) {
        if let Some(h) = self.router_handle.take() {
            h.stop();
        }
        for s in self.servers.drain(..) {
            s.stop();
        }
        if let Some(t) = self.twins.take() {
            for s in t.servers {
                s.stop();
            }
        }
        if let Some(h) = self.ingest.take() {
            h.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
