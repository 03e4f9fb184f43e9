"""Structure, shapes, and init properties of the generator and discriminator."""
import numpy as np
import pytest

from sepattn import losses, netarch, trainer
from sepattn.diffcore import ShapeError, Tensor4, ops
from sepattn.diffcore.tensor import topo_order

DESK_GEN = netarch.GeneratorConfig(depth=3, base_channels=16)
DESK_DISC = netarch.DiscriminatorConfig(num_layers=3, base_channels=16)


def rand_img(n=2, c=3, size=64, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor4(rng.uniform(-1, 1, (n, c, size, size)).astype(np.float32))


class TestConfigValidation:
    def test_image_size_must_be_pow2(self):
        with pytest.raises(netarch.ConfigError, match="power of two"):
            netarch.GeneratorConfig().validate(96)

    def test_depth_cannot_exceed_halvings(self):
        with pytest.raises(netarch.ConfigError, match="halved"):
            netarch.GeneratorConfig(depth=5).validate(16)

    def test_channel_ordering(self):
        with pytest.raises(netarch.ConfigError, match="base_channels"):
            netarch.GeneratorConfig(base_channels=64, max_channels=16).validate(256)

    def test_channel_plan_doubles_then_caps(self):
        cfg = netarch.GeneratorConfig(depth=6, base_channels=16, max_channels=128)
        assert cfg.encoder_channels() == [16, 32, 64, 128, 128, 128]

    def test_patch_collapse_rejected_at_build(self):
        cfg = netarch.DiscriminatorConfig(num_layers=3)
        with pytest.raises(netarch.ConfigError, match="collapses"):
            netarch.Discriminator(cfg, 4)

    def test_defaults_validate(self):
        netarch.GeneratorConfig().validate(256)
        netarch.DiscriminatorConfig().validate(256)


class TestGenerator:
    def test_output_shape_matches_input(self):
        gen = netarch.Generator(DESK_GEN, 64, seed=1)
        out = gen.forward(rand_img(), training=True)
        assert out.shape == (2, 3, 64, 64)

    def test_output_in_unit_interval(self):
        gen = netarch.Generator(DESK_GEN, 64, seed=1)
        out = gen.forward(rand_img(seed=3), training=True)
        assert out.data.min() >= -1.0 and out.data.max() <= 1.0

    def test_weight_shapes_follow_channel_plan(self):
        gen = netarch.Generator(DESK_GEN, 64, seed=0)
        shapes = {pid: p.tensor.shape for pid, p in gen.params.items()}
        assert shapes["e1/conv/weight"] == (16, 3, 4, 4)
        assert shapes["e2/conv/weight"] == (32, 16, 4, 4)
        assert shapes["e3/conv/weight"] == (64, 32, 4, 4)
        # d1 takes the bottleneck (64); d2 takes 32 decoder + 32 skip; d3 takes 16 + 16
        assert shapes["d1/tconv/weight"] == (64, 32, 4, 4)
        assert shapes["d2/tconv/weight"] == (64, 16, 4, 4)
        assert shapes["d3/tconv/weight"] == (32, 3, 4, 4)

    def test_parameter_count_matches_hand_tally(self):
        cfg = netarch.GeneratorConfig(depth=2, base_channels=4)
        gen = netarch.Generator(cfg, 8)
        # e1: 4*3*16 conv + 2*4 bn; e2: 8*4*16 + 2*8; d1: 8*4*16 + 2*4; d2: 8*3*16
        want = (192 + 8) + (512 + 16) + (512 + 8) + 384
        assert sum(p.tensor.data.size for p in gen.params.values()) == want

    def test_seed_determinism_and_variation(self):
        a = netarch.Generator(DESK_GEN, 64, seed=7)
        b = netarch.Generator(DESK_GEN, 64, seed=7)
        c = netarch.Generator(DESK_GEN, 64, seed=8)
        assert np.array_equal(
            a.params["e1/conv/weight"].tensor.data, b.params["e1/conv/weight"].tensor.data
        )
        assert not np.array_equal(
            a.params["e1/conv/weight"].tensor.data, c.params["e1/conv/weight"].tensor.data
        )

    def test_init_distribution_scale(self):
        gen = netarch.Generator(
            netarch.GeneratorConfig(depth=3, base_channels=32), 64, seed=0
        )
        w = gen.params["e3/conv/weight"].tensor.data
        assert abs(float(w.std()) - 0.02) < 0.002
        assert abs(float(w.mean())) < 0.002

    def test_bn_init_identity_affine(self):
        gen = netarch.Generator(DESK_GEN, 64)
        assert np.all(gen.params["e1/bn/gamma"].tensor.data == 1.0)
        assert np.all(gen.params["e1/bn/beta"].tensor.data == 0.0)

    def test_skip_wiring_is_live(self, monkeypatch):
        gen = netarch.Generator(DESK_GEN, 64, seed=2)
        x = rand_img(n=1, seed=4)
        full = gen.forward(x, training=True, update_stats=False).data

        concat = netarch.concat_channels
        stage1_hw = (gen.image_size // 2,) * 2
        cut_calls = []

        def zero_stage1_skip(a, skip):
            if skip.shape[2:] == stage1_hw:  # only encoder stage 1 runs at half size
                cut_calls.append(skip.shape)
                skip = Tensor4(np.zeros_like(skip.data))
            return concat(a, skip)

        monkeypatch.setattr(netarch, "concat_channels", zero_stage1_skip)
        cut = gen.forward(x, training=True, update_stats=False).data
        assert cut_calls == [(1, 16, 32, 32)]
        assert not np.allclose(full, cut)

    def test_wrong_spatial_size_rejected(self):
        gen = netarch.Generator(DESK_GEN, 64)
        with pytest.raises(ShapeError, match="64x64"):
            gen.forward(rand_img(size=32), training=True)

    def test_wrong_channel_count_rejected(self):
        gen = netarch.Generator(DESK_GEN, 64)
        with pytest.raises(ShapeError, match="channels"):
            gen.forward(rand_img(c=1), training=True)


@pytest.mark.parametrize(
    "build,channels",
    [(lambda: netarch.Generator(DESK_GEN, 64), 3), (lambda: netarch.Discriminator(DESK_DISC, 64), 6)],
    ids=["generator", "discriminator"],
)
@pytest.mark.parametrize(
    "training,update_stats", [(True, None), (True, True), (True, False), (False, None)]
)
def test_norm_buffers_update_in_training_unless_disabled(build, channels, training, update_stats):
    model = build()
    before = {k: v.copy() for k, v in model.buffers().items()}
    model.forward(rand_img(c=channels, seed=5), training=training, update_stats=update_stats)
    changed = {k for k, v in model.buffers().items() if not np.array_equal(v, before[k])}
    expected = set(before) if training and update_stats is not False else set()
    assert changed == expected


class TestDiscriminator:
    def test_patch_map_shape(self):
        disc = netarch.Discriminator(DESK_DISC, 64, seed=0)
        pair = Tensor4(np.zeros((2, 6, 64, 64), np.float32))
        out = disc.forward(pair, training=True)
        assert out.shape == (2, 1, 8, 8)

    def test_full_scale_patch_geometry(self):
        # two stride-2 layers from 256 px leave a 64x64 one-channel map
        disc = netarch.Discriminator(netarch.DiscriminatorConfig(num_layers=2), 256)
        out = disc.forward(Tensor4(np.zeros((1, 6, 256, 256), np.float32)))
        assert out.shape == (1, 1, 64, 64)

    def test_zero_input_zero_bias_gives_flat_patch_map(self):
        disc = netarch.Discriminator(DESK_DISC, 64, seed=3)
        pair = Tensor4(np.zeros((1, 6, 64, 64), np.float32))
        out = disc.forward(pair, training=True, update_stats=False).data
        assert np.all(out == out.reshape(-1)[0])

    def test_channel_mismatch_rejected(self):
        disc = netarch.Discriminator(DESK_DISC, 64)
        with pytest.raises(ShapeError, match="6 channels"):
            disc.forward(Tensor4(np.zeros((1, 3, 64, 64), np.float32)), training=True)

    def test_final_projection_has_bias_convs_do_not(self):
        disc = netarch.Discriminator(DESK_DISC, 64)
        assert "proj/conv/bias" in disc.params
        assert not any("conv/bias" in k for k in disc.params if k.startswith("c"))


class TestModelPlumbing:
    def test_param_ids_unique_and_stable(self):
        gen = netarch.Generator(DESK_GEN, 64)
        ids = list(gen.params)
        assert len(ids) == len(set(ids))
        assert ids[0] == "e1/conv/weight"


class TestTrainingGraph:
    def test_generator_phase_has_one_node_per_norm_stage_and_two_masks(self):
        cfg = trainer.desk_config()
        models = trainer.build_models(cfg)
        rng = np.random.default_rng(21)
        x, y = (Tensor4(rng.uniform(-1, 1, (2, 3, 64, 64)).astype(np.float32)) for _ in range(2))
        depth = rng.uniform(0, 1, (64, 64)).astype(np.float32)
        total, _ = losses.full_generator_loss(x, y, depth, models)
        nodes = topo_order(total)

        def made_by(op):
            return [t for t in nodes if t._grad_fn is not None and t._grad_fn.__qualname__.startswith(op + ".")]

        # 4 generator forwards of 3 encoder + 2 decoder stages, 4 discriminator
        # forwards of 3 stages: each stage is a single batch_norm_leaky node
        gen_stages = 2 * cfg.generator.depth - 1
        norm_nodes = made_by(ops.batch_norm_leaky.__name__)
        assert len(norm_nodes) == 4 * gen_stages + 4 * cfg.discriminator.num_layers == 32
        # every mul in the graph is a region split of a generated image (those of
        # the untracked x and y are constants); all eight share one (fg, bg) pair
        splits = made_by(ops.mul.__name__)
        assert len(splits) == 8
        assert len({id(t._parents[1]) for t in splits}) == 2
