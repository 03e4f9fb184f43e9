"""Structure, shapes, and init properties of the generator and discriminator."""
import numpy as np
import pytest

from sepattn import netarch
from sepattn.diffcore import ShapeError, Tensor4

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
        assert netarch.parameter_count(gen) == want

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

    def test_train_forward_updates_buffers_eval_does_not(self):
        gen = netarch.Generator(DESK_GEN, 64, seed=0)
        before = {k: v.copy() for k, v in gen.buffers().items()}
        gen.forward(rand_img(seed=5), training=False)
        for k, v in gen.buffers().items():
            assert np.array_equal(v, before[k]), k
        gen.forward(rand_img(seed=5), training=True)
        assert any(not np.array_equal(v, before[k]) for k, v in gen.buffers().items())


class TestDiscriminator:
    def test_patch_map_shape(self):
        disc = netarch.Discriminator(DESK_DISC, 64, seed=0)
        pair = Tensor4(np.zeros((2, 6, 64, 64), np.float32))
        out = disc.forward(pair, training=True)
        assert out.shape == (2, 1, 8, 8)
        assert DESK_DISC.patch_map_hw((64, 64)) == (8, 8)

    def test_full_scale_patch_geometry(self):
        # two stride-2 layers from 256 px leave a 64x64 one-channel map
        cfg = netarch.DiscriminatorConfig(num_layers=2)
        assert cfg.patch_map_hw((256, 256)) == (64, 64)

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

    def test_load_arrays_round_trip(self):
        a = netarch.Generator(DESK_GEN, 64, seed=1)
        b = netarch.Generator(DESK_GEN, 64, seed=2)
        params = {k: p.tensor.data.copy() for k, p in a.params.items()}
        buffers = {k: v.copy() for k, v in a.buffers().items()}
        b.load_arrays(params, buffers)
        for k in params:
            assert np.array_equal(b.params[k].tensor.data, a.params[k].tensor.data)

    def test_load_arrays_rejects_missing_key(self):
        gen = netarch.Generator(DESK_GEN, 64)
        params = {k: p.tensor.data for k, p in gen.params.items()}
        removed = params.pop("e1/conv/weight")
        with pytest.raises(KeyError, match="e1/conv/weight"):
            gen.load_arrays(params, gen.buffers())
        params["e1/conv/weight"] = removed

    def test_load_arrays_rejects_shape_change(self):
        gen = netarch.Generator(DESK_GEN, 64)
        params = {k: p.tensor.data.copy() for k, p in gen.params.items()}
        params["e1/conv/weight"] = params["e1/conv/weight"][:, :1]
        with pytest.raises(ShapeError, match="e1/conv/weight"):
            gen.load_arrays(params, gen.buffers())
