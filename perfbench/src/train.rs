//! `train`: repeated `train_gcon` at ε = 4, δ = 1/|E| over a fixed seed
//! list, alternating the cora-ml@0.25 and pubmed@0.25 inputs.
//!
//! The traced pass also runs a staged replica of Algorithm 1 from the
//! library's public stage functions, timing each stage; its Θ must equal
//! `train_gcon`'s bitwise.

use crate::env::{TrainInput, EPS};
use crate::report::{catalog_name, Pass};
use crate::stats::median;
use gcon_core::encoder::FeatureEncoder;
use gcon_core::params::{CalibrationInput, TheoremOneParams};
use gcon_core::propagation::{concat_features_with_solver, spmm_ops_performed};
use gcon_core::{ConvexLoss, TrainedGcon};
use gcon_graph::normalize::row_stochastic;
use gcon_linalg::Mat;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The fixed training seeds; F1 is their mean.
const SEEDS: [u64; 8] = [11, 12, 13, 14, 15, 16, 17, 18];

/// What the first run of each `(input, seed)` released: Θ's bits, which
/// every later run must repeat, and its test micro-F1.
#[derive(Debug, Default)]
pub struct Memory(BTreeMap<(usize, u64), (Vec<u64>, f64)>);

fn train(input: &TrainInput, seed: u64) -> TrainedGcon {
    let ds = &input.dataset;
    gcon_core::train::train_gcon(
        &input.config,
        &ds.graph,
        &ds.features,
        &ds.labels,
        &ds.split.train,
        ds.num_classes,
        EPS,
        input.delta,
        &mut StdRng::seed_from_u64(seed),
    )
}

fn bits(m: &Mat) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Test micro-F1 under private inference (Eq. 16).
fn f1(input: &TrainInput, model: &TrainedGcon) -> f64 {
    let ds = &input.dataset;
    let pred = gcon_core::infer::private_predict(model, &ds.graph, &ds.features);
    let test: Vec<usize> = ds.split.test.iter().map(|&i| pred[i]).collect();
    gcon_datasets::metrics::micro_f1(&test, &ds.test_labels())
}

/// The Theorem 1 input `train_gcon` calibrates from.
fn calibration_input(input: &TrainInput) -> CalibrationInput {
    let (cfg, ds) = (&input.config, &input.dataset);
    let n1 = if cfg.expand_train_set { ds.num_nodes() } else { ds.split.train.len() };
    CalibrationInput {
        eps: EPS,
        delta: input.delta,
        omega: cfg.omega,
        lambda: cfg.lambda,
        n1,
        num_classes: ds.num_classes,
        dim: cfg.steps.len() * cfg.encoder.d1,
        bounds: ConvexLoss::new(cfg.loss, ds.num_classes).bounds(),
        psi: gcon_core::sensitivity::psi_z_clipped(cfg.alpha, &cfg.steps, cfg.clip_p),
    }
}

/// The released model's own checks: the minimizer converged, and the
/// privacy report is what Theorem 1 gives on the same input.
fn model_ok(input: &TrainInput, model: &TrainedGcon) -> bool {
    let want = TheoremOneParams::compute(&calibration_input(input));
    let got = &model.report;
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
    model.final_grad_norm < input.config.optimizer.grad_tol
        && same(got.eps, EPS)
        && same(got.delta, input.delta)
        && same(got.params.beta, want.beta)
        && same(got.params.lambda_prime, want.lambda_prime)
        && same(got.params.lambda_eff, want.lambda_eff)
}

impl Memory {
    /// Records the first release of `(input, seed)`, or checks a repeat
    /// against it bitwise.
    fn repeatable(
        &mut self,
        which: usize,
        input: &TrainInput,
        seed: u64,
        model: &TrainedGcon,
    ) -> bool {
        let theta = bits(&model.theta);
        match self.0.get(&(which, seed)) {
            Some((first, _)) => *first == theta,
            None => {
                self.0.insert((which, seed), (theta, f1(input, model)));
                true
            }
        }
    }
}

/// Stage times of one staged replica of Algorithm 1, plus its Θ.
struct Stages {
    encoder_ms: f64,
    propagation_ms: f64,
    spmm_ops: f64,
    calibration_us: f64,
    noise_us: f64,
    minimize_ms: f64,
    minimize_iters: f64,
    grad_norm: f64,
    theta: Mat,
}

/// Algorithm 1 stage by stage, in `train_gcon`'s order and with its RNG
/// draws, timing each stage.
fn staged(input: &TrainInput, seed: u64) -> Stages {
    let (cfg, ds) = (&input.config, &input.dataset);
    let c = ds.num_classes;
    let mut rng = StdRng::seed_from_u64(seed);
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let a_tilde = row_stochastic(&ds.graph, cfg.clip_p);
    let x_labeled = ds.features.select_rows(&ds.split.train);
    let y_labeled: Vec<usize> = ds.split.train.iter().map(|&i| ds.labels[i]).collect();

    let t = Instant::now();
    let encoder = FeatureEncoder::train(&cfg.encoder, &x_labeled, &y_labeled, c, &mut rng);
    let mut x_enc = encoder.encode(&ds.features);
    x_enc.normalize_rows_l2();
    let mut encoder_ms = ms(t);

    let ops = spmm_ops_performed();
    let t = Instant::now();
    let z_all =
        concat_features_with_solver(&a_tilde, &x_enc, cfg.alpha, &cfg.steps, cfg.ppr_solver);
    let propagation_ms = ms(t);
    let spmm_ops = (spmm_ops_performed() - ops) as f64;

    let (rows, row_labels): (Vec<usize>, Vec<usize>) = if cfg.expand_train_set {
        let t = Instant::now();
        let mut labels = encoder.predict(&ds.features);
        encoder_ms += ms(t);
        for &i in &ds.split.train {
            labels[i] = ds.labels[i];
        }
        ((0..ds.num_nodes()).collect(), labels)
    } else {
        (ds.split.train.clone(), y_labeled)
    };
    let z_train = z_all.select_rows(&rows);
    let mut y_onehot = Mat::zeros(rows.len(), c);
    for (r, &label) in row_labels.iter().enumerate() {
        y_onehot.set(r, label, 1.0);
    }

    let t = Instant::now();
    let loss = ConvexLoss::new(cfg.loss, c);
    let params = TheoremOneParams::compute(&calibration_input(input));
    let calibration_us = ms(t) * 1e3;

    let t = Instant::now();
    let b = gcon_core::noise::sample_noise_matrix(z_train.cols(), c, params.beta, &mut rng);
    let noise_us = ms(t) * 1e3;

    let t = Instant::now();
    let obj = gcon_core::objective::PerturbedObjective::new(
        &z_train,
        &y_onehot,
        loss,
        params.lambda_total(),
        &b,
    );
    let theta0 = Mat::zeros(z_train.cols(), c);
    let (theta, iters, grad_norm) = gcon_core::train::minimize(&obj, theta0, &cfg.optimizer);
    let minimize_ms = ms(t);
    Stages {
        encoder_ms,
        propagation_ms,
        spmm_ops,
        calibration_us,
        noise_us,
        minimize_ms,
        minimize_iters: iters as f64,
        grad_norm,
        theta,
    }
}

/// Trains for `span`, alternating inputs and cycling the seed list;
/// `traced` adds a staged replica after every run.
pub fn run(
    inputs: &[TrainInput],
    memory: &mut Memory,
    label: &str,
    span: Duration,
    traced: bool,
) -> Pass {
    let mut pass = Pass::default();
    // Warm-up, untimed: one run per input.
    for (which, input) in inputs.iter().enumerate() {
        let model = train(input, SEEDS[0]);
        let ok = model_ok(input, &model) && memory.repeatable(which, input, SEEDS[0], &model);
        pass.op(ok);
    }
    let mut wall_ms: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut stages: Vec<Vec<Stages>> = inputs.iter().map(|_| Vec::new()).collect();
    let end = Instant::now() + span;
    let mut i = 0;
    // At least one timed run per input, however short the span.
    while i < inputs.len() || Instant::now() < end {
        let which = i % inputs.len();
        let seed = SEEDS[(i / inputs.len()) % SEEDS.len()];
        let input = &inputs[which];
        let t = Instant::now();
        let model = train(input, seed);
        wall_ms[which].push(t.elapsed().as_secs_f64() * 1e3);
        let ok = model_ok(input, &model) && memory.repeatable(which, input, seed, &model);
        pass.op(ok);
        if traced {
            let s = staged(input, seed);
            pass.op(bits(&s.theta) == bits(&model.theta));
            stages[which].push(s);
        }
        i += 1;
    }
    // F1 covers the whole seed list, however far the timed loop got.
    for (which, input) in inputs.iter().enumerate() {
        for seed in SEEDS {
            if !memory.0.contains_key(&(which, seed)) {
                let model = train(input, seed);
                let ok = model_ok(input, &model) && memory.repeatable(which, input, seed, &model);
                pass.op(ok);
            }
        }
        if !traced {
            let s = staged(input, SEEDS[0]);
            let first = &memory.0[&(which, SEEDS[0])].0;
            pass.check(
                bits(&s.theta) == *first,
                &format!("train: staged {} Θ equals train_gcon's", input.name),
            );
        }
    }

    let metric =
        |input: &TrainInput, suffix: &str| catalog_name(&format!("{}{suffix}", input.name));
    for (which, input) in inputs.iter().enumerate() {
        let wall = median(&wall_ms[which]);
        pass.set(catalog_name(&format!("train_{}_ms", input.name)), wall);
        let f1s: Vec<f64> = SEEDS.iter().map(|&s| memory.0[&(which, s)].1).collect();
        pass.set(
            catalog_name(&format!("f1_{}", input.name)),
            f1s.iter().sum::<f64>() / f1s.len() as f64,
        );
        pass.note(format!(
            "train {label} {}: {} runs, median {wall:.2} ms; test micro-F1 per seed {f1s:.4?}",
            input.name,
            wall_ms[which].len()
        ));
        if !traced {
            continue;
        }
        let st = &stages[which];
        let m = |f: fn(&Stages) -> f64| median(&st.iter().map(f).collect::<Vec<_>>());
        pass.set(metric(input, ".encoder_ms"), m(|s| s.encoder_ms));
        pass.set(metric(input, ".propagation_ms"), m(|s| s.propagation_ms));
        pass.set(metric(input, ".calibration_us"), m(|s| s.calibration_us));
        pass.set(metric(input, ".noise_us"), m(|s| s.noise_us));
        pass.set(metric(input, ".minimize_ms"), m(|s| s.minimize_ms));
        pass.set(metric(input, ".spmm_ops"), m(|s| s.spmm_ops));
        pass.set(metric(input, ".minimize_iters"), m(|s| s.minimize_iters));
        pass.set(metric(input, ".grad_norm"), m(|s| s.grad_norm));
    }
    pass
}
