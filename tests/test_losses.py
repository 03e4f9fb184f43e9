"""Loss algebra: worked scalar examples, report consistency, gradient structure."""
import math

import numpy as np
import pytest

from sepattn import losses, netarch
from sepattn.diffcore import Tensor4, backward
from sepattn.losses import LossWeights

# tiny models keep these tests fast; geometry is exercised in test_netarch
GEN_CFG = netarch.GeneratorConfig(depth=2, base_channels=4, max_channels=8)
DISC_CFG = netarch.DiscriminatorConfig(num_layers=2, base_channels=4)


def scores(value, shape=(2, 1, 4, 4)):
    return Tensor4(np.full(shape, value, np.float32))


def small_models(seed=0):
    return {
        "gen_xy": netarch.Generator(GEN_CFG, 16, seed=seed),
        "gen_yx": netarch.Generator(GEN_CFG, 16, seed=seed + 1),
        "disc_x": netarch.Discriminator(DISC_CFG, 16, seed=seed + 2),
        "disc_y": netarch.Discriminator(DISC_CFG, 16, seed=seed + 3),
    }


def batch(seed=0, n=2, size=16):
    rng = np.random.default_rng(seed)
    x = Tensor4(rng.uniform(-1, 1, (n, 3, size, size)).astype(np.float32))
    y = Tensor4(rng.uniform(-1, 1, (n, 3, size, size)).astype(np.float32))
    depth = rng.uniform(0, 1, (size, size)).astype(np.float32)
    return x, y, depth


class TestGanAtoms:
    def test_perfect_fool_is_zero(self):
        assert losses.gan_generator_loss(scores(1.0)).item() == 0.0

    def test_halfway_scores_cost_quarter(self):
        assert losses.gan_generator_loss(scores(0.5)).item() == pytest.approx(0.25)

    def test_perfect_discrimination_is_zero(self):
        got = losses.gan_discriminator_loss(scores(1.0), scores(0.0))
        assert got.item() == 0.0

    def test_confused_discriminator_costs_half(self):
        got = losses.gan_discriminator_loss(scores(0.5), scores(0.5))
        assert got.item() == pytest.approx(0.5)


class TestCycle:
    def test_perfect_cycle_is_zero(self):
        img = Tensor4(np.random.default_rng(0).uniform(-1, 1, (1, 3, 4, 4)).astype(np.float32))
        assert losses.cycle_loss(img, img).item() == 0.0

    def test_constant_offset_costs_offset(self):
        a = scores(0.25, (1, 3, 4, 4))
        b = scores(-1.25, (1, 3, 4, 4))
        assert losses.cycle_loss(a, b).item() == pytest.approx(1.5)


class TestAttentionObjective:
    def test_worked_example_exact(self):
        assert losses.attention_objective(1.8, 0.6, LossWeights()) == 14.4

    def test_unit_weights_sum(self):
        w = LossWeights(fg_attention=1.0, bg_attention=1.0)
        assert losses.attention_objective(2.0, 3.0, w) == 5.0

    def test_tensor_path_stays_on_graph(self):
        fg = Tensor4(np.full((1, 1, 1, 1), 2.0, np.float32), requires_grad=True)
        bg = Tensor4(np.full((1, 1, 1, 1), 1.0, np.float32), requires_grad=True)
        total = losses.attention_objective(fg, bg, LossWeights())
        backward(total)
        assert fg.grad.reshape(-1)[0] == pytest.approx(7.0)
        assert bg.grad.reshape(-1)[0] == pytest.approx(3.0)

    def test_mixed_types_rejected(self):
        fg = Tensor4(np.ones((1, 1, 1, 1), np.float32))
        with pytest.raises(TypeError):
            losses.attention_objective(fg, 1.0, LossWeights())


class TestLossWeights:
    def test_defaults_valid(self):
        LossWeights()

    @pytest.mark.parametrize("mu", [0.5, 11.0, 0.0, math.nan])
    def test_out_of_range_attention_rejected(self, mu):
        with pytest.raises(ValueError, match="fg_attention"):
            LossWeights(fg_attention=mu)

    def test_negative_cycle_weight_rejected(self):
        with pytest.raises(ValueError, match="cycle_weight"):
            LossWeights(cycle_weight=-1.0)

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_non_finite_cycle_weight_rejected(self, lam):
        with pytest.raises(ValueError, match="cycle_weight"):
            LossWeights(cycle_weight=lam)


class TestFullGeneratorLoss:
    def test_report_internal_consistency(self):
        models = small_models()
        x, y, depth = batch()
        w = LossWeights()
        total, rep = losses.full_generator_loss(x, y, depth, models, w)
        # combined regions re-aggregate into the raw sums
        assert rep["combined_fg"] + rep["combined_bg"] == pytest.approx(
            rep["gan_g_xy"] + rep["gan_g_yx"] + w.cycle_weight * rep["cycle"], rel=1e-4
        )
        assert rep["attention_total"] == pytest.approx(
            w.fg_attention * rep["combined_fg"] + w.bg_attention * rep["combined_bg"], rel=1e-5
        )
        assert total.item() == rep["attention_total"]

    def test_all_generator_params_receive_grads(self):
        models = small_models(seed=3)
        x, y, depth = batch(seed=3)
        total, _ = losses.full_generator_loss(x, y, depth, models)
        backward(total)
        for name in ("gen_xy", "gen_yx"):
            for pid, p in models[name].params.items():
                assert p.tensor.grad is not None, f"{name}/{pid}"
                assert np.all(np.isfinite(p.tensor.grad)), f"{name}/{pid}"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_decomposes_by_attention_weights(self, seed):
        models = small_models(seed=seed)
        x, y, depth = batch(seed=seed)
        w = LossWeights()

        def backward_through(part):
            # backward consumes its graph: one graph per gradient, all equal
            # because training-mode forwards use batch moments
            total, _, parts = losses.full_generator_loss(
                x, y, depth, models, w, return_parts=True
            )
            backward(total if part == "total" else parts[part])

        gens = [models["gen_xy"], models["gen_yx"]]
        backward_through("total")
        g_total = {
            f"{i}/{pid}": p.tensor.grad.copy()
            for i, m in enumerate(gens)
            for pid, p in m.params.items()
        }
        for m in models.values():
            for p in m.params.values():
                p.tensor.zero_grad()
        backward_through("combined_fg")
        g_fg = {
            f"{i}/{pid}": p.tensor.grad.copy() if p.tensor.grad is not None else 0.0
            for i, m in enumerate(gens)
            for pid, p in m.params.items()
        }
        for m in models.values():
            for p in m.params.values():
                p.tensor.zero_grad()
        backward_through("combined_bg")
        for i, m in enumerate(gens):
            for pid, p in m.params.items():
                g_bg = p.tensor.grad if p.tensor.grad is not None else 0.0
                want = w.fg_attention * g_fg[f"{i}/{pid}"] + w.bg_attention * g_bg
                got = g_total[f"{i}/{pid}"]
                assert np.abs(got - want).max() < 1e-5, f"{i}/{pid}"

    def test_mismatched_pair_shapes_rejected(self):
        models = small_models()
        x, _, depth = batch()
        y_small = Tensor4(np.zeros((2, 3, 8, 8), np.float32))
        with pytest.raises(Exception, match="shapes differ"):
            losses.full_generator_loss(x, y_small, depth, models)

    def test_missing_model_key_rejected(self):
        x, y, depth = batch()
        with pytest.raises(KeyError, match="disc_y"):
            losses.full_generator_loss(x, y, depth, {"gen_xy": None, "gen_yx": None, "disc_x": None})

    def test_discriminator_buffers_untouched_in_generator_phase(self):
        models = small_models(seed=5)
        before = {k: v.copy() for k, v in models["disc_x"].buffers().items()}
        x, y, depth = batch(seed=5)
        losses.full_generator_loss(x, y, depth, models)
        for k, v in models["disc_x"].buffers().items():
            assert np.array_equal(v, before[k]), k


class TestSeparatedDiscriminatorLosses:
    def _run(self, seed=0, **kw):
        models = small_models(seed=seed)
        x, y, depth = batch(seed=seed)
        fake_y = Tensor4(models["gen_xy"].forward(x, training=True).data)
        fake_x = Tensor4(models["gen_yx"].forward(y, training=True).data)
        return models, x, y, fake_x, fake_y, depth, losses.separated_discriminator_losses(
            x, y, fake_x, fake_y, depth, models, **kw
        )

    def test_four_region_values_reported(self):
        *_, (total, vals) = self._run()
        assert set(vals) == {"disc_x_fg", "disc_x_bg", "disc_y_fg", "disc_y_bg"}
        assert all(np.isfinite(v) for v in vals.values())

    def test_total_is_attention_weighted_region_sum(self):
        w = LossWeights()
        *_, (total, vals) = self._run(weights=w)
        want = w.fg_attention * (vals["disc_x_fg"] + vals["disc_y_fg"]) + w.bg_attention * (
            vals["disc_x_bg"] + vals["disc_y_bg"]
        )
        assert total.item() == pytest.approx(want, rel=1e-5)

    def test_undetached_fakes_rejected(self):
        models = small_models(seed=1)
        x, y, depth = batch(seed=1)
        fake_y = models["gen_xy"].forward(x, training=True)  # still on the graph
        fake_x = Tensor4(models["gen_yx"].forward(y, training=True).data)
        with pytest.raises(ValueError, match="detached"):
            losses.separated_discriminator_losses(x, y, fake_x, fake_y, depth, models)

    def test_backward_moves_discriminators_not_generators(self):
        models, x, y, fake_x, fake_y, depth, (total, _) = self._run(seed=2)
        backward(total)
        assert all(
            p.tensor.grad is not None for p in models["disc_x"].params.values()
        )
        assert all(
            p.tensor.grad is None for p in models["gen_xy"].params.values()
        )

