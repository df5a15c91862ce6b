//! Set-up: the inputs every workload runs on, the served model, the
//! `gcond` processes and the fleet.

use crate::loadgen::derive;
use gcon_core::{GconConfig, PropagationStep, TrainedGcon};
use gcon_datasets::Dataset;
use gcon_linalg::Mat;
use gcon_serve::{
    Coordinator, DynamicServingModel, FleetConfig, ServingMode, ServingModel, StoreDtype,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// ε every model is trained at.
pub const EPS: f64 = 4.0;

/// A running `gcond` child, killed and reaped on drop.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// The address the daemon announced.
    pub addr: String,
}

impl Daemon {
    /// Starts `gcond` with `args` on an ephemeral loopback port and waits
    /// for its `listening on ADDR` line.
    pub fn spawn(gcond: &Path, args: &[&str]) -> Result<Self, String> {
        let mut child = Command::new(gcond)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", gcond.display()))?;
        let mut line = String::new();
        let read = child.stdout.take().map(|out| BufReader::new(out).read_line(&mut line));
        match line.trim().strip_prefix("listening on ") {
            Some(addr) if matches!(read, Some(Ok(_))) => Ok(Self { addr: addr.to_string(), child }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("gcond {args:?} did not start (banner {line:?})"))
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A scratch directory inside the working directory, removed on drop.
#[derive(Debug)]
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Creates `.perfbench_tmp/<pid>` under the current directory.
    pub fn create() -> Result<Self, String> {
        let dir = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds when no other run shares the parent.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// One input of the `train` workload.
#[derive(Debug)]
pub struct TrainInput {
    /// `cora` or `pubmed`: the prefix of its metric names.
    pub name: &'static str,
    /// The generated dataset.
    pub dataset: Dataset,
    /// Algorithm 1's hyperparameters for it.
    pub config: GconConfig,
    /// δ = 1/|E|.
    pub delta: f64,
}

/// Everything the workloads run against. Built by [`Env::build`], the
/// body of `setup_s`.
#[derive(Debug)]
pub struct Env {
    /// The served graph: pubmed at scale 0.3.
    pub served: Dataset,
    /// The served model (m = {2, ∞}).
    pub model: TrainedGcon,
    /// The public-mode f64 store the daemons serve.
    pub store: ServingModel,
    /// `gcond --store` serving `store` from disk.
    pub daemon: Daemon,
    /// The 2-shard fleet front end (1 replica per shard).
    pub fleet: Coordinator,
    /// The two `gcond --shard` workers behind `fleet`.
    pub shards: Vec<Daemon>,
    /// The dynamic store the `update` workload mutates.
    pub dynamic: DynamicServingModel,
    /// The `train` workload's two inputs.
    pub train_inputs: Vec<TrainInput>,
}

/// The propagation steps m = {2, ∞}.
pub fn steps_2_inf() -> Vec<PropagationStep> {
    vec![PropagationStep::Finite(2), PropagationStep::Infinite]
}

impl Env {
    /// Generates the inputs from `seed`, trains the served model, builds
    /// and saves its store, starts the daemon and the fleet, and builds the
    /// dynamic store and the training inputs.
    pub fn build(gcond: &Path, seed: u64, dir: &WorkDir) -> Result<Self, String> {
        let served = gcon_datasets::pubmed(0.3, derive(seed, "served-data"));
        let mut config = gcon_bench::default_gcon_config("pubmed");
        config.steps = steps_2_inf();
        let mut rng = StdRng::seed_from_u64(derive(seed, "served-train"));
        let model = gcon_core::train::train_gcon(
            &config,
            &served.graph,
            &served.features,
            &served.labels,
            &served.split.train,
            served.num_classes,
            EPS,
            served.default_delta(),
            &mut rng,
        );
        let store = ServingModel::build_with_dtype(
            &model,
            &served.graph,
            &served.features,
            ServingMode::Public,
            StoreDtype::F64,
        );
        let path = dir.0.join("served.gconstore");
        store.save(&path).map_err(|e| format!("saving {}: {e}", path.display()))?;
        let path = path.to_str().ok_or("store path is not UTF-8")?;
        let daemon = Daemon::spawn(gcond, &["--store", path])?;
        let shards = vec![Daemon::spawn(gcond, &["--shard"])?, Daemon::spawn(gcond, &["--shard"])?];
        let topology: Vec<Vec<String>> = shards.iter().map(|d| vec![d.addr.clone()]).collect();
        let fleet = Coordinator::deploy(&store, &topology, FleetConfig::default())
            .map_err(|e| format!("fleet deploy: {e}"))?;
        let dynamic = DynamicServingModel::build_with_dtype(
            &model,
            served.graph.clone(),
            &served.features,
            ServingMode::Public,
            StoreDtype::F64,
        );
        let train_inputs = vec![
            TrainInput::new("cora", gcon_datasets::cora_ml(0.25, derive(seed, "cora-data")), None),
            TrainInput::new(
                "pubmed",
                gcon_datasets::pubmed(0.25, derive(seed, "pubmed-data")),
                Some(steps_2_inf()),
            ),
        ];
        Ok(Self { served, model, store, daemon, fleet, shards, dynamic, train_inputs })
    }

    /// Every node's logits from the in-process store: the reference each
    /// served answer must equal bitwise.
    pub fn reference(&self) -> Mat {
        let nodes: Vec<usize> = (0..self.store.num_nodes()).collect();
        self.store.session().logits_batch(&nodes).clone()
    }
}

impl TrainInput {
    fn new(name: &'static str, dataset: Dataset, steps: Option<Vec<PropagationStep>>) -> Self {
        let mut config = gcon_bench::default_gcon_config(&dataset.name);
        if let Some(steps) = steps {
            config.steps = steps;
        }
        let delta = dataset.default_delta();
        Self { name, dataset, config, delta }
    }
}

/// Whether two logit rows are bitwise equal.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
