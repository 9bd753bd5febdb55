//! What you train is what you serve: on every backend, a mutable
//! layer's training `forward` and the `infer` of its `freeze()` agree
//! **bitwise** — from a single conv up to the assembled network.
//!
//! Training packs weight panels per call and serving packs them once at
//! freeze time; both then run the one packed GEMM driver at every
//! extent, so there is no tolerance to state. One table: each row
//! builds a seeded model on the device under test and returns `(what,
//! trained, served)` triples to compare.

use adarnet_core::{decoder, AdarNet, AdarNetConfig, Scorer};
use adarnet_nn::{
    Activation, Conv2d, ConvTranspose2d, Device, Initializer, Layer, Optimizer, Sequential, Sgd,
};
use adarnet_tensor::{Shape, Tensor};

type Pairs = Vec<(String, Tensor<f32>, Tensor<f32>)>;

fn filled(shape: Shape, phase: f32) -> Tensor<f32> {
    let n = shape.numel();
    Tensor::from_vec(
        shape,
        (0..n).map(|i| (i as f32 * 0.0731 + phase).sin()).collect(),
    )
}

/// Spatial extents every single-layer row runs: 3×3 = 9 px (below one
/// register tile, all ragged edge), 5×7 = 35 px (ragged column tile),
/// 13×9 = 117 px (`o_len % NR != 0` past one tile) and 16×16 (a paper
/// patch, edge-free).
const EXTENTS: [(usize, usize); 4] = [(3, 3), (5, 7), (13, 9), (16, 16)];

/// `forward` vs `freeze().infer` for one layer over [`EXTENTS`].
fn layer_pairs(mut layer: impl Layer, ic: usize, dev: Device) -> Pairs {
    layer.set_device(dev);
    let frozen = layer.freeze();
    EXTENTS
        .iter()
        .map(|&(h, w)| {
            let x = filled(Shape::d4(2, ic, h, w), 0.3);
            (format!("{h}x{w}"), layer.forward(&x), frozen.infer(&x))
        })
        .collect()
}

/// Conv + relu + deconv, compared before and after one SGD step: the
/// served model must be the *trained* one.
fn sequential_pairs(dev: Device) -> Pairs {
    let mut net = Sequential::new()
        .push(Conv2d::new(1, 4, 3, Initializer::HeNormal, 21))
        .push(Activation::relu())
        .push(ConvTranspose2d::new(
            4,
            2,
            3,
            Initializer::XavierUniform,
            22,
        ));
    net.set_device(dev);
    let mut pairs = Pairs::new();
    let mut compare = |net: &mut Sequential, step: &str| {
        let frozen = net.freeze();
        for (h, w) in [(3, 3), (16, 16)] {
            let x = filled(Shape::d4(1, 1, h, w), 0.1);
            pairs.push((format!("{step} {h}x{w}"), net.forward(&x), frozen.infer(&x)));
        }
    };
    compare(&mut net, "init");
    // The last forward (16x16) is cached: backprop it and step.
    net.backward(&filled(Shape::d4(1, 2, 16, 16), 0.7));
    let grads: Vec<Tensor<f32>> = net.grads().into_iter().cloned().collect();
    Sgd::new(1e-2).step(&mut net.params_mut(), &grads.iter().collect::<Vec<_>>());
    compare(&mut net, "after one SGD step");
    let (init, trained) = (&pairs[1].1, &pairs[3].1);
    assert_ne!(init, trained, "the SGD step must move the output");
    pairs
}

fn scorer_pairs(dev: Device) -> Pairs {
    let mut s = Scorer::new(4, 8, 8, 11);
    s.set_device(dev);
    let x = filled(Shape::d4(2, 4, 16, 32), 0.0);
    let (live, cold) = (s.forward(&x), s.freeze().forward(&x));
    vec![
        ("scores".into(), live.scores, cold.scores),
        ("latent".into(), live.latent, cold.latent),
    ]
}

fn decoder_pairs(dev: Device) -> Pairs {
    let mut d = decoder(7, 5);
    d.set_device(dev);
    let frozen = d.freeze();
    [(8, 8), (16, 16), (32, 32)]
        .iter()
        .map(|&(h, w)| {
            let x = filled(Shape::d4(2, 7, h, w), 0.2);
            (format!("{h}x{w}"), d.forward(&x), frozen.infer(&x))
        })
        .collect()
}

/// The trainer's forward (`AdarNet::try_plan` + `decoder.forward` per
/// bin) against the serving one (`FrozenAdarNet::try_plan` +
/// `decoder()`), stage by stage.
fn network_pairs(dev: Device) -> Pairs {
    let mut m = AdarNet::new(AdarNetConfig {
        ph: 8,
        pw: 8,
        seed: 3,
        ..AdarNetConfig::default()
    });
    m.set_device(dev);
    let frozen = m.freeze();
    let x = filled(Shape::d3(4, 16, 32), 0.0);
    let trained = m.try_plan(&x).unwrap();
    let served = frozen.try_plan(&x).unwrap();
    assert_eq!(trained.binning.bin_of_patch, served.binning.bin_of_patch);
    let mut pairs = Pairs::new();
    for (bin, group) in trained.binning.groups.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        let batch = |plan: &adarnet_core::ForwardPlan| {
            let inputs: Vec<_> = group.iter().map(|&i| plan.decoder_input(i)).collect();
            Tensor::stack(&inputs)
        };
        pairs.push((
            format!("decoded bin {bin}"),
            m.decoder.forward(&batch(&trained)),
            frozen.decoder().forward(&batch(&served)),
        ));
    }
    pairs.push(("scores".into(), trained.scores, served.scores));
    pairs.push(("augmented field".into(), trained.aug, served.aug));
    pairs
}

#[test]
fn training_forward_equals_frozen_infer_bitwise() {
    type Row = (&'static str, fn(Device) -> Pairs);
    let table: [Row; 8] = [
        ("Conv2d 2->3", |d| {
            layer_pairs(Conv2d::new(2, 3, 3, Initializer::HeNormal, 7), 2, d)
        }),
        // oc = 6: a ragged MR row block on top of the ragged extents.
        ("Conv2d 4->6 (oc % MR != 0)", |d| {
            layer_pairs(Conv2d::new(4, 6, 3, Initializer::HeNormal, 8), 4, d)
        }),
        ("ConvTranspose2d 3->2", |d| {
            layer_pairs(
                ConvTranspose2d::new(3, 2, 3, Initializer::XavierUniform, 9),
                3,
                d,
            )
        }),
        ("ConvTranspose2d 4->6 (oc % MR != 0)", |d| {
            layer_pairs(
                ConvTranspose2d::new(4, 6, 3, Initializer::HeNormal, 10),
                4,
                d,
            )
        }),
        ("Sequential conv+relu+deconv", sequential_pairs),
        ("Scorer", scorer_pairs),
        ("Decoder", decoder_pairs),
        ("AdarNet plan + decode", network_pairs),
    ];
    for dev in [Device::CpuScalar, Device::CpuSimd] {
        for (row, run) in &table {
            for (what, trained, served) in run(dev) {
                assert_eq!(
                    trained,
                    served,
                    "{row}, {what}: training forward != frozen infer on {}",
                    dev.name()
                );
            }
        }
    }
}
