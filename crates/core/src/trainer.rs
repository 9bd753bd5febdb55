//! Semi-supervised training of the ADARNet DNN (§3.2, §4.2).
//!
//! Per sample: scorer plans the binning, then each bin is one decoder
//! micro-batch — forward, per-patch hybrid loss, backward — with gradients
//! flowing back through the bicubic refinement into the augmented field
//! and from its latent channel into the scorer (the differentiable path;
//! the discrete ranker cuts the score path). Adam at lr 1e-4, the paper's
//! optimizer.

use adarnet_dataset::Sample;
use adarnet_nn::{bicubic_resize3_adjoint, Adam, Optimizer};
use adarnet_tensor::{Shape, Tensor};

use crate::loss::{hybrid_loss_and_grad, LossConfig, NormStats};
use crate::network::{AdarNet, ForwardPlan};

/// Training hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainerConfig {
    /// Learning rate (1e-4 in the paper).
    pub lr: f64,
    /// PDE-loss weight (0.03 in the paper).
    pub lambda: f64,
    /// Laminar viscosity for the PDE residual.
    pub nu: f64,
    /// Weight of the physics-based score supervision: the scorer's softmax
    /// scores are pulled toward the per-patch PDE-residual distribution of
    /// the LR input. The paper trains the scorer end-to-end without
    /// specifying how gradient reaches the (ranker-cut) score head; this
    /// term realizes its stated principle — "refinement decisions are
    /// based on physics principles" (§1) — with the only physics signal
    /// available, the governing-equation residual. See DESIGN.md §2.
    pub mu: f64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            lr: 1e-4,
            lambda: 0.03,
            nu: 1e-5,
            mu: 10.0,
        }
    }
}

/// Aggregated losses over one pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassStats {
    /// Mean data (MSE) loss per patch.
    pub data: f64,
    /// Mean PDE residual loss per patch.
    pub pde: f64,
    /// Mean combined loss per patch.
    pub total: f64,
    /// Patches processed.
    pub patches: usize,
}

/// Trainer: model + optimizer + dataset normalization.
pub struct Trainer {
    /// The model being trained.
    pub model: AdarNet,
    /// Adam state.
    pub opt: Adam,
    /// Dataset normalization (fit on the training set).
    pub norm: NormStats,
    /// Hyperparameters.
    pub cfg: TrainerConfig,
}

impl Trainer {
    /// Create a trainer; `norm` should come from
    /// [`NormStats::from_samples`] over the training fields.
    pub fn new(model: AdarNet, norm: NormStats, cfg: TrainerConfig) -> Trainer {
        Trainer {
            model,
            opt: Adam::new(cfg.lr),
            norm,
            cfg,
        }
    }

    fn loss_cfg(&self, sample: &Sample) -> LossConfig {
        let h = sample.field.dim(1) as f64;
        let w = sample.field.dim(2) as f64;
        // Nondimensionalize residuals by the convective scale u_ref^2/l_ref
        // so the PDE term is O(1) against the normalized-data MSE.
        let u_ref = self.norm.span(0).max(1e-6) as f64;
        let r_scale = u_ref * u_ref / sample.meta.ly.max(1e-12);
        LossConfig {
            lambda: self.cfg.lambda,
            nu: self.cfg.nu,
            dy0: sample.meta.ly / h,
            dx0: sample.meta.lx / w,
            r_scale,
        }
    }

    /// Physics-based score targets: the normalized per-patch PDE-residual
    /// distribution of the (physical-units) LR input field.
    fn score_targets(&self, sample: &Sample, loss_cfg: &LossConfig) -> Vec<f32> {
        use crate::pde::{residual_loss_and_grad, Field};
        let field = &sample.field;
        let (h, w) = (field.dim(1), field.dim(2));
        let (ph, pw) = (self.model.cfg.ph, self.model.cfg.pw);
        let (npy, npx) = (h / ph, w / pw);
        let mut r = Vec::with_capacity(npy * npx);
        for py in 0..npy {
            for px in 0..npx {
                let patch = field.extract_patch(py * ph, px * pw, ph, pw);
                let plane = ph * pw;
                let u = Field::from_f32(ph, pw, &patch.as_slice()[..plane]);
                let v = Field::from_f32(ph, pw, &patch.as_slice()[plane..2 * plane]);
                let p = Field::from_f32(ph, pw, &patch.as_slice()[2 * plane..3 * plane]);
                let nu_eff = Field {
                    h: ph,
                    w: pw,
                    a: patch.as_slice()[3 * plane..]
                        .iter()
                        .map(|&nt| loss_cfg.nu + (nt as f64).max(0.0))
                        .collect(),
                };
                let (loss, _, _, _) =
                    residual_loss_and_grad(&u, &v, &p, &nu_eff, loss_cfg.dy0, loss_cfg.dx0);
                r.push(loss);
            }
        }
        let total: f64 = r.iter().sum();
        if total <= 0.0 {
            return vec![1.0 / r.len() as f32; r.len()];
        }
        r.into_iter().map(|v| (v / total) as f32).collect()
    }

    /// Forward + loss for one sample without updating weights (validation).
    pub fn evaluate_sample(&mut self, sample: &Sample) -> PassStats {
        let (stats, _) = self.forward_backward(sample, false);
        stats
    }

    /// One optimization step on one sample. Returns the losses *before*
    /// the update.
    pub fn train_sample(&mut self, sample: &Sample) -> PassStats {
        self.model.scorer.zero_grads();
        self.model.decoder.zero_grads();
        let (stats, _) = self.forward_backward(sample, true);
        // Gather aligned param/grad lists across scorer and decoder.
        let grads: Vec<Tensor<f32>> = {
            let mut g: Vec<Tensor<f32>> = self.model.scorer.grads().into_iter().cloned().collect();
            g.extend(self.model.decoder.grads().into_iter().cloned());
            g
        };
        let mut params = self.model.scorer.params_mut();
        params.extend(self.model.decoder.params_mut());
        let grad_refs: Vec<&Tensor<f32>> = grads.iter().collect();
        self.opt.step(&mut params, &grad_refs);
        stats
    }

    /// One pass over the dataset (shuffled by the caller if desired).
    pub fn train_epoch(&mut self, samples: &[Sample]) -> PassStats {
        let mut agg = PassStats {
            data: 0.0,
            pde: 0.0,
            total: 0.0,
            patches: 0,
        };
        for s in samples {
            let st = self.train_sample(s);
            agg.data += st.data * st.patches as f64;
            agg.pde += st.pde * st.patches as f64;
            agg.total += st.total * st.patches as f64;
            agg.patches += st.patches;
        }
        let n = agg.patches.max(1) as f64;
        agg.data /= n;
        agg.pde /= n;
        agg.total /= n;
        // Per-epoch loss decomposition (data MSE vs. λ-weighted PDE
        // residual) as gauges, so a dashboard tracks the λ trade-off
        // the paper tunes in §3.3 without parsing training logs.
        adarnet_obs::counter!("train_epochs_total").inc();
        adarnet_obs::gauge!("train_data_loss").set(agg.data);
        adarnet_obs::gauge!("train_pde_loss").set(agg.pde);
        adarnet_obs::gauge!("train_weighted_loss").set(agg.total);
        agg
    }

    /// Mean validation loss over samples.
    pub fn validate(&mut self, samples: &[Sample]) -> PassStats {
        let mut agg = PassStats {
            data: 0.0,
            pde: 0.0,
            total: 0.0,
            patches: 0,
        };
        for s in samples {
            let st = self.evaluate_sample(s);
            agg.data += st.data * st.patches as f64;
            agg.pde += st.pde * st.patches as f64;
            agg.total += st.total * st.patches as f64;
            agg.patches += st.patches;
        }
        let n = agg.patches.max(1) as f64;
        agg.data /= n;
        agg.pde /= n;
        agg.total /= n;
        agg
    }

    /// Shared forward (+ optional backward) over all bins of one sample.
    fn forward_backward(&mut self, sample: &Sample, backward: bool) -> (PassStats, ForwardPlan) {
        let loss_cfg = self.loss_cfg(sample);
        let x = self.norm.normalize(&sample.field);
        let plan = self.model.plan(&x);
        let layout = plan.layout;
        let (c_in, h, w) = (x.dim(0), x.dim(1), x.dim(2));
        let c_aug = c_in + 1;

        // Gradient with respect to the augmented field, accumulated across
        // bins; its latent channel feeds the scorer's backward pass.
        let mut aug_grad = Tensor::<f32>::zeros(Shape::d3(c_aug, h, w));

        let mut agg = PassStats {
            data: 0.0,
            pde: 0.0,
            total: 0.0,
            patches: 0,
        };

        for bin in 0..self.model.cfg.bins {
            let group = plan.binning.groups[bin as usize].clone();
            if group.is_empty() {
                continue;
            }
            let level = bin;
            let inputs: Vec<Tensor<f32>> = group.iter().map(|&i| plan.decoder_input(i)).collect();
            let batch = Tensor::stack(&inputs);
            let out = self.model.decoder.forward(&batch);

            // Per-patch hybrid loss and gradient.
            let mut grads = Vec::with_capacity(group.len());
            for (k, &i) in group.iter().enumerate() {
                let (py, px) = layout.coords(i);
                let label = x.extract_patch(py * layout.ph, px * layout.pw, layout.ph, layout.pw);
                let pred = out.image(k);
                let (pl, g) = hybrid_loss_and_grad(&pred, &label, level, &self.norm, &loss_cfg);
                agg.data += pl.data;
                agg.pde += pl.pde;
                agg.total += pl.total(loss_cfg.lambda);
                agg.patches += 1;
                grads.push(g);
            }

            if backward {
                let batch_grad = Tensor::stack(&grads);
                let din = self.model.decoder.backward(&batch_grad); // (Nb, c_aug+2, th, tw)
                                                                    // Route input gradients back: drop the coordinate channels,
                                                                    // adjoint the bicubic refinement, scatter into aug_grad.
                for (k, &i) in group.iter().enumerate() {
                    let (py, px) = layout.coords(i);
                    let d_full = din.image(k); // (c_aug + 2, th, tw)
                    let (th, tw) = (d_full.dim(1), d_full.dim(2));
                    let mut d_aug_patch = Tensor::<f32>::zeros(Shape::d3(c_aug, th, tw));
                    d_aug_patch
                        .as_mut_slice()
                        .copy_from_slice(&d_full.as_slice()[..c_aug * th * tw]);
                    let d_lr = if level == 0 {
                        d_aug_patch
                    } else {
                        bicubic_resize3_adjoint(&d_aug_patch, layout.ph, layout.pw)
                    };
                    // Accumulate into the augmented-field gradient.
                    let y0 = py * layout.ph;
                    let x0 = px * layout.pw;
                    for c in 0..c_aug {
                        for ii in 0..layout.ph {
                            for jj in 0..layout.pw {
                                let cur = aug_grad.get3(c, y0 + ii, x0 + jj);
                                aug_grad.set3(c, y0 + ii, x0 + jj, cur + d_lr.get3(c, ii, jj));
                            }
                        }
                    }
                }
            }
        }

        if backward {
            // The latent channel of the augmented field is the scorer's
            // differentiable output.
            let mut d_latent = Tensor::<f32>::zeros(Shape::d4(1, 1, h, w));
            d_latent
                .as_mut_slice()
                .copy_from_slice(&aug_grad.as_slice()[c_in * h * w..]);

            // Physics-based score supervision (see TrainerConfig::mu):
            // MSE between the softmax scores and the per-patch PDE-residual
            // distribution of the LR input.
            let d_scores = if self.cfg.mu > 0.0 {
                let targets = self.score_targets(sample, &loss_cfg);
                let n = targets.len() as f64;
                let mut ds = plan.scores.clone();
                for (g, &t) in ds.as_mut_slice().iter_mut().zip(&targets) {
                    *g = (self.cfg.mu * 2.0 * (*g - t) as f64 / n) as f32;
                }
                Some(ds)
            } else {
                None
            };
            let _ = self.model.scorer.backward(&d_latent, d_scores.as_ref());
        }

        let n = agg.patches.max(1) as f64;
        agg.data /= n;
        agg.pde /= n;
        agg.total /= n;
        (agg, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::AdarNetConfig;
    use adarnet_dataset::{DatasetConfig, Family, SampleMeta};

    fn tiny_sample(seed: u64) -> Sample {
        let n = 4 * 8 * 16;
        let field = Tensor::from_vec(
            Shape::d3(4, 8, 16),
            (0..n)
                .map(|i| ((i as f32 * 0.013 + seed as f32) * 0.7).sin() * 0.1 + 0.2)
                .collect(),
        );
        Sample {
            field,
            meta: SampleMeta {
                family: Family::Channel,
                reynolds: 2.5e3,
                name: "test".into(),
                lx: 6.0,
                ly: 0.1,
            },
        }
    }

    fn tiny_trainer() -> Trainer {
        let model = AdarNet::new(AdarNetConfig {
            ph: 8,
            pw: 8,
            seed: 42,
            ..AdarNetConfig::default()
        });
        let s = tiny_sample(0);
        let norm = NormStats::from_samples([&s.field]);
        Trainer::new(model, norm, TrainerConfig::default())
    }

    #[test]
    fn train_step_reduces_loss_over_iterations() {
        let mut t = tiny_trainer();
        t.opt.set_learning_rate(1e-3); // faster for the tiny test
        let s = tiny_sample(0);
        let first = t.train_sample(&s);
        let mut last = first;
        for _ in 0..10 {
            last = t.train_sample(&s);
        }
        assert!(
            last.total < first.total,
            "loss did not decrease: {} -> {}",
            first.total,
            last.total
        );
        assert_eq!(first.patches, 2);
    }

    #[test]
    fn evaluate_does_not_change_weights() {
        let mut t = tiny_trainer();
        let s = tiny_sample(1);
        let before = t.model.decoder.snapshot();
        let _ = t.evaluate_sample(&s);
        let after = t.model.decoder.snapshot();
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a, b, "evaluation must not mutate weights");
        }
    }

    #[test]
    fn epoch_aggregates_over_samples() {
        let mut t = tiny_trainer();
        let samples: Vec<Sample> = (0..3).map(tiny_sample).collect();
        let stats = t.train_epoch(&samples);
        assert_eq!(stats.patches, 3 * 2);
        assert!(stats.total.is_finite() && stats.total > 0.0);
    }

    #[test]
    fn scorer_receives_gradient_through_latent_path() {
        let mut t = tiny_trainer();
        let s = tiny_sample(2);
        t.model.scorer.zero_grads();
        t.model.decoder.zero_grads();
        let _ = t.forward_backward(&s, true);
        let scorer_grad: f64 = t.model.scorer.grads().iter().map(|g| g.abs_max()).sum();
        assert!(scorer_grad > 0.0, "latent path delivered no gradient");
    }

    #[test]
    fn score_supervision_aligns_scores_with_residual_targets() {
        // Ablation of TrainerConfig::mu: with physics-based score
        // supervision weighted strongly enough, the scorer's distribution
        // ends closer to the per-patch PDE-residual distribution than the
        // unsupervised (mu = 0) run, where the shared-latent gradient
        // moves the scores arbitrarily.
        let run = |mu: f64| -> f64 {
            let s = tiny_sample(3);
            let norm = NormStats::from_samples([&s.field]);
            let model = AdarNet::new(AdarNetConfig {
                ph: 8,
                pw: 8,
                seed: 55,
                ..AdarNetConfig::default()
            });
            let mut t = Trainer::new(
                model,
                norm,
                TrainerConfig {
                    mu,
                    lr: 1e-3,
                    ..TrainerConfig::default()
                },
            );
            let loss_cfg = t.loss_cfg(&s);
            let targets = t.score_targets(&s, &loss_cfg);
            for _ in 0..25 {
                t.train_sample(&s);
            }
            let x = t.norm.normalize(&s.field);
            let plan = t.model.plan(&x);
            plan.scores
                .as_slice()
                .iter()
                .zip(&targets)
                .map(|(&sc, &tg)| ((sc - tg) as f64).powi(2))
                .sum::<f64>()
                / targets.len() as f64
        };
        let supervised = run(20.0);
        let unsupervised = run(0.0);
        assert!(
            supervised < unsupervised,
            "supervision did not improve alignment: mu=20 {supervised} vs mu=0 {unsupervised}"
        );
    }

    #[test]
    fn dataset_integration_smoke() {
        // End-to-end with the real generator at miniature scale.
        let cfg = DatasetConfig {
            per_family: 2,
            h: 8,
            w: 16,
            seed: 1,
            val_fraction: 0.0,
        };
        let ds = adarnet_dataset::generate(&cfg);
        let fields: Vec<&Tensor<f32>> = ds.iter().map(|s| &s.field).collect();
        let norm = NormStats::from_samples(fields);
        let model = AdarNet::new(AdarNetConfig {
            ph: 8,
            pw: 8,
            seed: 7,
            ..AdarNetConfig::default()
        });
        let mut t = Trainer::new(model, norm, TrainerConfig::default());
        let stats = t.train_epoch(&ds);
        assert!(stats.total.is_finite());
        assert_eq!(stats.patches, 6 * 2);
    }
}

#[cfg(test)]
mod target_probe {
    use super::*;
    use crate::network::{AdarNet, AdarNetConfig};
    use adarnet_dataset::{Family, SampleMeta};

    #[test]
    fn plate_targets_are_wall_heavy() {
        // The synthetic flat plate has its wall (high-residual) side at
        // row 0; the score targets must concentrate there, not at the top.
        let case = adarnet_cfd::CaseConfig::flat_plate(1.35e6);
        let s = Sample {
            field: adarnet_dataset::synthesize(&case, 32, 64),
            meta: SampleMeta {
                family: Family::FlatPlate,
                reynolds: 1.35e6,
                name: case.name.clone(),
                lx: case.lx,
                ly: case.ly,
            },
        };
        let model = AdarNet::new(AdarNetConfig {
            ph: 8,
            pw: 8,
            seed: 1,
            ..AdarNetConfig::default()
        });
        let norm = NormStats::from_samples([&s.field]);
        let t = Trainer::new(model, norm, TrainerConfig::default());
        let cfg = t.loss_cfg(&s);
        let targets = t.score_targets(&s, &cfg);
        // 4 patch rows x 8 columns; sum per row.
        let row_sum: Vec<f64> = (0..4)
            .map(|py| {
                targets[py * 8..(py + 1) * 8]
                    .iter()
                    .map(|&v| v as f64)
                    .sum()
            })
            .collect();
        eprintln!("plate target row sums (bottom->top): {row_sum:?}");
        assert!(
            row_sum[0] > row_sum[3],
            "targets are top-heavy: {row_sum:?}"
        );
    }
}
