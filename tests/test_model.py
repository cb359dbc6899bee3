"""Architecture: configuration, shapes, patching semantics, checkpoints."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from patchformer import model as model_module
from patchformer.checkpoint import load_model, save_model
from patchformer.config import (
    ABLATIONS,
    ModelConfig,
    STANDARD_28_CHANNELS,
    STANDARD_28_GROUPS,
    reference_config,
    standard_local_graph_indices,
)
from patchformer.errors import ConfigurationError, DataFormatError, ShapeError
from patchformer.model import aggregate, buffer_shapes, build, param_count, parameter_shapes
from patchformer.rng import Rng
from patchformer.tensor import Tensor, no_grad, pack, softmax
from patchformer.train import predict_proba

import oracles


class TestStandardGrouping:
    def test_sizes_and_total(self):
        groups = STANDARD_28_GROUPS
        assert [len(g) for g in groups] == [2, 3, 2, 4, 3, 4, 5, 1, 2, 1, 1]
        assert sum(len(g) for g in groups) == 28
        assert len(groups) == 11
        assert groups[7] == ["POz"]  # the singleton parieto-occipital region

    def test_indices_partition_the_montage(self):
        idx = standard_local_graph_indices()
        flat = [i for group in idx for i in group]
        assert sorted(flat) == list(range(28))
        assert len(STANDARD_28_CHANNELS) == 28
        assert [len(g) for g in STANDARD_28_GROUPS] == [len(g) for g in idx]


class TestConfigValidation:
    def test_reference_config_valid(self):
        cfg = reference_config()
        cfg.validate()
        assert cfg.kernel_len == 125

    def test_out_of_range_channel(self):
        cfg = ModelConfig(c=28, l=1000, f_s=250.0,
                          local_graphs=standard_local_graph_indices()[:-1] + [[28]])
        with pytest.raises(ConfigurationError, match="channel 28"):
            cfg.validate()

    def test_overlapping_groups_rejected(self):
        cfg = ModelConfig(c=4, l=64, f_s=16.0, k=4, local_graphs=[[0, 1], [1, 2]],
                          l_t=4, l_step=2, l_token=8, n_head=2)
        with pytest.raises(ConfigurationError, match="more than one"):
            cfg.validate()

    # a channel in two graphs and a channel twice in one graph are different causes
    @pytest.mark.parametrize("graphs, message", [
        ([[0, 1], [1, 2]], "channel 1 appears in more than one local graph"),
        ([[0, 0], [1]], "local graph 0 lists channel 0 more than once"),
        ([[0], [1, 2, 1]], "local graph 1 lists channel 1 more than once"),
    ], ids=["two-graphs", "repeat-first", "repeat-later"])
    def test_shared_or_repeated_channel_named(self, graphs, message):
        cfg = ModelConfig(c=4, l=64, f_s=16.0, k=4, local_graphs=graphs,
                          l_t=4, l_step=2, l_token=8, n_head=2)
        with pytest.raises(ConfigurationError, match=message):
            cfg.validate()

    @pytest.mark.parametrize("entry", [0.7, True, np.float64(1.0), np.bool_(True), "1"],
                             ids=["float", "bool", "numpy-float", "numpy-bool", "str"])
    def test_non_integer_channel_named(self, entry):
        cfg = ModelConfig(c=4, l=64, f_s=16.0, k=4, local_graphs=[[0], [entry, 2], [3]],
                          l_t=4, l_step=2, l_token=8, n_head=2)
        with pytest.raises(ConfigurationError,
                           match=rf"local graph 1 entry {re.escape(repr(entry))} is not an integer"):
            cfg.validate()

    def test_numpy_integer_channel_accepted(self):
        cfg = ModelConfig(c=4, l=64, f_s=16.0, k=4, local_graphs=[[0], [np.int64(1), 2], [3]],
                          l_t=4, l_step=2, l_token=8, n_head=2)
        assert cfg.validate().graphs[1] == [1, 2]

    def test_head_divisibility(self):
        cfg = ModelConfig(c=4, l=64, f_s=16.0, l_token=30, n_head=4,
                          local_graphs=[[0], [1], [2], [3]], l_t=4)
        with pytest.raises(ConfigurationError, match="divisible"):
            cfg.validate()

    def test_patch_length_bound(self):
        cfg = ModelConfig(c=4, l=64, f_s=16.0, local_graphs=[[0], [1], [2], [3]],
                          l_t=9, l_step=2, l_token=8, n_head=2)  # t_spatial = 8
        with pytest.raises(ConfigurationError, match="l_t"):
            cfg.validate()

    @pytest.mark.parametrize("f_s", [float("nan"), float("inf")])
    @pytest.mark.parametrize("kernel_len", [None, 8])
    def test_non_finite_sampling_rate(self, tiny_config, f_s, kernel_len):
        cfg = replace(tiny_config, f_s=f_s, temporal_kernel_len=kernel_len)
        with pytest.raises(ConfigurationError, match="f_s"):
            cfg.validate()

    def test_dict_round_trip(self, tiny_config):
        again = ModelConfig.from_dict(tiny_config.to_dict())
        assert again.to_dict() == tiny_config.to_dict()


class TestBuild:
    def test_same_seed_identical_bytes(self, tiny_config):
        a = build(tiny_config, Rng(5))
        b = build(tiny_config, Rng(5))
        for name in a.parameters:
            np.testing.assert_array_equal(a.parameters[name].data, b.parameters[name].data)

    def test_different_seed_differs(self, tiny_config):
        a = build(tiny_config, Rng(5))
        b = build(tiny_config, Rng(6))
        assert any(not np.array_equal(a.parameters[n].data, b.parameters[n].data)
                   for n in a.parameters)

    def test_reference_builds(self):
        model = build(reference_config(), Rng(0))
        assert model.parameters["spm.local.weight"].data.shape == (28, 4000)

    def test_invalid_config_raises_before_alloc(self):
        cfg = ModelConfig(c=2, l=64, f_s=16.0, local_graphs=[[0, 1], [2]], l_t=4,
                          l_step=2, l_token=8, n_head=2)
        with pytest.raises(ConfigurationError):
            build(cfg, Rng(0))

    def test_init_policy(self, tiny_config):
        model = build(tiny_config, Rng(1))
        np.testing.assert_array_equal(model.parameters["spm.local.weight"].data, 1.0)
        np.testing.assert_array_equal(model.parameters["spm.local.bias"].data, 0.0)
        np.testing.assert_array_equal(model.parameters["tcnn.bn.gamma"].data, 1.0)
        np.testing.assert_array_equal(model.parameters["tcnn.bias"].data, 0.0)
        bound = 1.0 / np.sqrt(tiny_config.kernel_len)
        kern = model.parameters["tcnn.kernels"].data
        assert np.abs(kern).max() <= bound and kern.std() > 0


class TestParameterArena:
    def test_parameters_are_consecutive_views_of_one_array(self, tiny_config):
        model = build(tiny_config, Rng(0))
        arena = model.arena
        assert arena.ndim == 1 and arena.size == param_count(tiny_config)
        offset = 0
        for name, p in model.parameters.items():
            assert p.data.base is arena, name
            start = (p.data.ctypes.data - arena.ctypes.data) // arena.itemsize
            assert start == offset and p.data.flags.c_contiguous, name
            offset += p.data.size
        assert pack(model.parameters) is arena

    def test_pack_copies_plain_tensors_once(self):
        params = {"a": Tensor(np.arange(6.0).reshape(2, 3)), "b": Tensor(np.array(7.0))}
        flat = pack(params)
        np.testing.assert_array_equal(flat, [0, 1, 2, 3, 4, 5, 7])
        assert pack(params) is flat
        flat[-1] = 8.0
        assert float(params["b"].data) == 8.0

    def test_state_dict_is_a_copy_and_loads_back(self, tiny_config):
        model = build(tiny_config, Rng(0))
        state = model.state_dict()
        model.arena[:] = 0.0
        model.buffers["tcnn.bn.running_mean"][:] = 5.0
        model.load_state(state)
        fresh = build(tiny_config, Rng(0))
        np.testing.assert_array_equal(model.arena, fresh.arena)
        for name, b in fresh.buffers.items():
            np.testing.assert_array_equal(model.buffers[name], b)


class TestStageShapes:
    def test_reference_pipeline_shapes(self, np_rng):
        cfg = reference_config()
        model = build(cfg, Rng(2))
        x = Tensor(np_rng.normal(size=(1, 1, 28, 1000)).astype(np.float32))
        z = model.temporal_cnn(x)
        assert z.shape == (1, 32, 28, 250)
        z = model.feature_enhance(z)
        assert z.shape == (1, 32, 28, 125)
        z = model.spm(z)
        assert z.shape == (1, 12, 32, 125)
        tok = model.tpm(z)
        assert tok.shape == (1, 264, 32)
        out = model.transformer_encode(tok)
        assert out.shape == (1, 264, 32)

    def test_logits_shape_and_softmax_rows(self, tiny_config, np_rng):
        model = build(tiny_config, Rng(3))
        x = Tensor(np_rng.normal(size=(2, 1, 4, 64)).astype(np.float32))
        logits = model.forward(x)
        assert logits.shape == (2, 2)
        np.testing.assert_allclose(softmax(logits, -1).data.sum(axis=1), 1.0, atol=1e-6)

    def test_eval_forward_deterministic(self, tiny_config, np_rng):
        model = build(tiny_config, Rng(3))
        x = np_rng.normal(size=(2, 1, 4, 64)).astype(np.float32)
        a = model.forward(Tensor(x)).data
        b = model.forward(Tensor(x)).data
        np.testing.assert_array_equal(a, b)

    def test_reference_eval_forward_without_graph_is_bit_identical(self, np_rng):
        # the no-graph forward runs the pooled front-end blocks and records no
        # attention op, the recording forward the composite front-end ops and
        # the width-1 attention op's tape; eval logits must agree bit for bit
        model = build(reference_config(), Rng(4))
        x = Tensor(np_rng.normal(size=(2, 1, 28, 1000)).astype(np.float32))
        recorded = model.forward(x, mode="eval")
        assert recorded.requires_grad
        with no_grad():
            blocked = model.forward(x, mode="eval")
        np.testing.assert_array_equal(blocked.data, recorded.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", ["small", "reference"])
    def test_pooled_front_end_predicts_the_composite_probabilities(
            self, monkeypatch, front_end_state, small_loso_config, shape, dtype):
        # batches of 16 and 1; the composite front end runs when the model
        # is told a graph would be recorded (the ops themselves record none)
        config, ablations = ((small_loso_config, ABLATIONS) if shape == "small"
                             else (reference_config(), ("full",)))
        x = np.random.default_rng(7).normal(size=(17, config.c, config.l))
        for ablation in ablations:
            model = build(replace(config, ablation=ablation), Rng(8), dtype=dtype)
            front_end_state(model, 9)
            pooled = predict_proba(model, x, 16)
            with monkeypatch.context() as m:
                m.setattr(model_module, "recording", lambda *tensors: True)
                composite = predict_proba(model, x, 16)
            assert pooled.dtype == composite.dtype == dtype
            assert pooled.tobytes() == composite.tobytes(), ablation

    def test_wrong_input_rank(self, tiny_config, np_rng):
        model = build(tiny_config, Rng(3))
        with pytest.raises(ShapeError):
            model.temporal_cnn(Tensor(np_rng.normal(size=(2, 4, 64))))

    def test_identity_mixing_reduces_fem_to_bn_act_pool(self, tiny_config, np_rng):
        from patchformer.tensor import BatchNormState, avg_pool_time, batch_norm, leaky_relu

        model = build(tiny_config, Rng(6))
        k = tiny_config.k
        model.parameters["fem.kernels"].data[...] = np.eye(k, dtype=np.float32).reshape(k, k, 1, 1)
        model.parameters["fem.bias"].data[...] = 0.0
        x = Tensor(np_rng.normal(size=(2, 1, 4, 64)).astype(np.float32))
        z = model.temporal_cnn(x)
        got = model.feature_enhance(z).data
        w, b = model.parameters, model.buffers
        bn = BatchNormState(w["fem.bn.gamma"], w["fem.bn.beta"],
                            b["fem.bn.running_mean"], b["fem.bn.running_var"])
        manual = avg_pool_time(
            leaky_relu(batch_norm(z, bn, "eval"), tiny_config.leaky_slope), 2, 2).data
        np.testing.assert_allclose(got, manual, rtol=1e-5, atol=1e-6)

    def test_zeroed_residual_branches_leave_layer_norm_stack(self, tiny_config, np_rng):
        from patchformer.tensor import layer_norm

        model = build(tiny_config, Rng(6))
        w = model.parameters
        for block in ("attn.wo", "ffn_out"):
            w[f"transformer.0.{block}.weight"].data[...] = 0.0
            w[f"transformer.0.{block}.bias"].data[...] = 0.0
        tok = Tensor(np_rng.normal(size=(2, 12, 8)).astype(np.float32))
        got = model.transformer_encode(tok).data
        manual = layer_norm(
            layer_norm(tok, w["transformer.0.norm1.gamma"], w["transformer.0.norm1.beta"]),
            w["transformer.0.norm2.gamma"], w["transformer.0.norm2.beta"]).data
        np.testing.assert_allclose(got, manual, rtol=1e-5, atol=1e-6)

    def test_randomized_configs_obey_shape_law(self, np_rng):
        for trial in range(10):
            c = int(np_rng.integers(2, 7))
            l = int(np_rng.integers(3, 9)) * 8
            k = int(np_rng.integers(2, 6))
            n_head = int(np_rng.integers(1, 3))
            l_token = n_head * int(np_rng.integers(2, 5))
            # random disjoint grouping of all channels
            perm = np_rng.permutation(c).tolist()
            cuts = sorted(set(np_rng.integers(1, c, size=2).tolist()) - {0})
            graphs = [g for g in np.split(np.array(perm), cuts) if len(g)]
            graphs = [g.tolist() for g in graphs]
            t_sp = l // 8
            l_t = int(np_rng.integers(1, t_sp + 1))
            l_step = int(np_rng.integers(1, l_t + 1))
            cfg = ModelConfig(c=c, l=l, f_s=16.0, k=k, local_graphs=graphs,
                              l_t=l_t, l_step=l_step, l_token=l_token,
                              n_head=n_head, n_layers=1, dropout_p=0.0)
            cfg.validate()
            p = len(graphs) + 1
            n_w = (t_sp - l_t) // l_step + 1
            assert cfg.n_patches == p and cfg.n_windows == n_w
            model = build(cfg, Rng(trial))
            x = Tensor(np_rng.normal(size=(2, 1, c, l)).astype(np.float32))
            z = model.temporal_cnn(x)
            assert z.shape == (2, k, c, l // 4)
            z = model.feature_enhance(z)
            assert z.shape == (2, k, c, l // 8)
            z = model.spm(z)
            assert z.shape == (2, p, k, l // 8)
            tok = model.tpm(z)
            assert tok.shape == (2, p * n_w, l_token)
            logits = model.forward(x)
            assert logits.shape == (2, 2)


class TestAggregate:
    def test_two_row_mean(self):
        z = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        out = aggregate(z, [[0, 1]])
        np.testing.assert_allclose(out.data, [[[2.0, 3.0]]])

    def test_singleton_region_identity(self, np_rng):
        z = Tensor(np_rng.normal(size=(2, 5, 7)).astype(np.float32))
        out = aggregate(z, [[3]])
        np.testing.assert_array_equal(out.data[:, 0], z.data[:, 3])

    def test_standard_grouping_shape(self, np_rng):
        z = Tensor(np_rng.normal(size=(1, 28, 4000)).astype(np.float32))
        assert aggregate(z, standard_local_graph_indices()).shape == (1, 11, 4000)

    def test_matches_loop_oracle_exactly(self, np_rng):
        graphs = standard_local_graph_indices()
        for _ in range(20):
            z = np_rng.normal(size=(2, 28, 16)).astype(np.float32)
            got = aggregate(Tensor(z), graphs).data
            want = oracles.region_means_loops(z, graphs)
            np.testing.assert_array_equal(got, want)

    def test_empty_region_rejected(self, np_rng):
        with pytest.raises(ConfigurationError):
            aggregate(Tensor(np_rng.normal(size=(1, 4, 3))), [[0], []])

    def test_repeated_channel_within_a_region_rejected(self, np_rng):
        # forward would weight channel 0 twice, backward give it one share
        with pytest.raises(ConfigurationError, match="region 0 lists a channel more than once"):
            aggregate(Tensor(np_rng.normal(size=(1, 4, 3)), requires_grad=True), [[0, 0, 1], [2]])


class TestTokenOrdering:
    def test_swapping_regions_permutes_token_blocks(self, np_rng):
        base = dict(c=6, l=64, f_s=16.0, k=4, l_t=4, l_step=2, l_token=8,
                    n_head=2, n_layers=1, dropout_p=0.0, positional_embedding=False)
        cfg_a = ModelConfig(local_graphs=[[0, 1], [2, 3], [4, 5]], **base)
        cfg_b = ModelConfig(local_graphs=[[2, 3], [0, 1], [4, 5]], **base)
        model_a = build(cfg_a, Rng(11))
        model_b = build(cfg_b, Rng(11))
        x = Tensor(np_rng.normal(size=(1, 1, 6, 64)).astype(np.float32))

        def tokens(model):
            z = model.temporal_cnn(x)
            z = model.feature_enhance(z)
            return model.tpm(model.spm(z)).data

        tok_a, tok_b = tokens(model_a), tokens(model_b)
        n_w = cfg_a.n_windows
        # block 0 <-> block 1 swap, blocks 2 (region 3) and 3 (global) fixed
        np.testing.assert_array_equal(tok_b[:, :n_w], tok_a[:, n_w : 2 * n_w])
        np.testing.assert_array_equal(tok_b[:, n_w : 2 * n_w], tok_a[:, :n_w])
        np.testing.assert_array_equal(tok_b[:, 2 * n_w :], tok_a[:, 2 * n_w :])

    def test_zeroed_global_branch_gives_constant_last_patch(self, tiny_config, np_rng):
        model = build(tiny_config, Rng(4))
        model.parameters["spm.global.kernels"].data[...] = 0.0
        model.parameters["spm.global.bias"].data[...] = 0.0
        beta = np.array([0.5, -1.0, 2.0, 0.25], dtype=np.float32)
        model.parameters["spm.global.bn.beta"].data[...] = beta
        x = Tensor(np_rng.normal(size=(1, 1, 4, 64)).astype(np.float32))
        z = model.feature_enhance(model.temporal_cnn(x))
        patches = model.spm(z).data
        # last patch is eval-mode BN + activation of zeros: leaky_relu(beta) per map
        last = patches[0, -1]  # (k, T)
        expected = np.where(beta >= 0, beta, 0.01 * beta)[:, None]
        np.testing.assert_allclose(last, np.broadcast_to(expected, last.shape), rtol=1e-5)

    def test_sweep_window_counts(self):
        assert reference_config(l_t=10).n_windows == 24
        assert reference_config(l_t=10).n_tokens == 288
        assert reference_config(l_t=50).n_windows == 16

    def test_single_window_token_count(self, np_rng):
        cfg = ModelConfig(c=4, l=64, f_s=16.0, k=4, local_graphs=[[0, 1], [2], [3]],
                          l_t=8, l_step=3, l_token=8, n_head=2, n_layers=1,
                          dropout_p=0.0)  # l_t == t_spatial -> one window per patch
        assert cfg.n_windows == 1 and cfg.n_tokens == cfg.n_patches
        model = build(cfg, Rng(0))
        x = Tensor(np_rng.normal(size=(1, 1, 4, 64)).astype(np.float32))
        assert model.forward(x).shape == (1, 2)


class TestAblations:
    def test_reference_token_counts(self):
        assert reference_config().n_tokens == 264
        assert reference_config(ablation="no_spm").n_tokens == 28 * 22
        no_overlap = reference_config(ablation="no_overlap")
        assert no_overlap.step_effective == 20
        assert no_overlap.n_windows == 6 and no_overlap.n_tokens == 72

    def test_no_fem_time_length(self, np_rng):
        cfg = ModelConfig(c=4, l=64, f_s=16.0, k=4, local_graphs=[[0, 1], [2], [3]],
                          l_t=4, l_step=2, l_token=8, n_head=2, n_layers=1,
                          dropout_p=0.0, ablation="no_fem")
        assert cfg.t_spatial == 16  # l/4, not l/8
        model = build(cfg, Rng(1))
        x = Tensor(np_rng.normal(size=(1, 1, 4, 64)).astype(np.float32))
        z = model.temporal_cnn(x)
        assert model.spm(z).shape == (1, 4, 4, 16)
        assert model.forward(x).shape == (1, 2)

    def test_no_spm_patches_are_channels(self, np_rng):
        cfg = ModelConfig(c=4, l=64, f_s=16.0, k=4, local_graphs=[[0, 1], [2], [3]],
                          l_t=4, l_step=2, l_token=8, n_head=2, n_layers=1,
                          dropout_p=0.0, ablation="no_spm")
        assert cfg.n_patches == 4
        model = build(cfg, Rng(1))
        assert "spm.local.weight" not in model.parameters
        x = Tensor(np_rng.normal(size=(1, 1, 4, 64)).astype(np.float32))
        assert model.forward(x).shape == (1, 2)

    def test_param_counts(self):
        full = param_count(reference_config())
        # Hand-derived deltas at the reference scale.
        # no_fem: -1120 (1x1 conv + BN) +224000 (local filter at T=250)
        #         +9600 (positions, q 264->564) +19200 (head, q 264->564)
        assert param_count(reference_config(ablation="no_fem")) == full + 251680
        # no_spm: -252768 (local filter + global conv + BN)
        #         +11264 (positions, q->616) +22528 (head, q->616)
        assert param_count(reference_config(ablation="no_spm")) == full - 218976
        # no_overlap: q 264->72 shrinks positions by 6144 and the head by 12288
        assert param_count(reference_config(ablation="no_overlap")) == full - 18432
        shapes = parameter_shapes(reference_config())
        assert int(np.prod(shapes["tpm.proj.weight"])) + int(np.prod(shapes["tpm.proj.bias"])) == 20512
        assert int(np.prod(shapes["spm.local.weight"])) == 112000
        assert int(np.prod(shapes["spm.local.bias"])) == 112000

    def test_param_count_matches_build(self, tiny_config):
        model = build(tiny_config, Rng(0))
        assert param_count(tiny_config) == sum(p.data.size for p in model.parameters.values())

    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_built_names_follow_the_shape_maps(self, tiny_config, ablation):
        cfg = replace(tiny_config, ablation=ablation)
        model = build(cfg, Rng(0))
        assert list(model.parameters) == list(parameter_shapes(cfg))
        assert list(model.buffers) == list(buffer_shapes(cfg))
        assert {n: p.shape for n, p in model.parameters.items()} == parameter_shapes(cfg)
        assert {n: b.shape for n, b in model.buffers.items()} == buffer_shapes(cfg)

    @pytest.mark.parametrize("ablation, norms", [
        ("full", ["tcnn", "fem", "spm.global"]), ("no_fem", ["tcnn", "spm.global"]),
        ("no_spm", ["tcnn", "fem"]), ("no_overlap", ["tcnn", "fem", "spm.global"])])
    def test_buffers_are_each_batch_norms_running_statistics(self, ablation, norms):
        cfg = reference_config(ablation=ablation)
        want = {f"{norm}.bn.{stat}": (cfg.k,)
                for norm in norms for stat in ("running_mean", "running_var")}
        assert list(buffer_shapes(cfg).items()) == list(want.items())

    @pytest.mark.parametrize("ablation, stage", [("no_fem", "feature_enhance"),
                                                 ("no_spm", "spm_local_filter"),
                                                 ("no_spm", "spm_global")])
    def test_ablated_stage_refuses_to_run(self, tiny_config, ablation, stage):
        cfg = replace(tiny_config, ablation=ablation)
        x = Tensor(np.zeros((1, cfg.k, cfg.c, cfg.t_spatial), dtype=np.float32))
        with pytest.raises(ConfigurationError, match="built without"):
            getattr(build(cfg, Rng(0)), stage)(x)


class TestCheckpoint:
    def test_round_trip(self, tiny_config, tmp_path, np_rng):
        model = build(tiny_config, Rng(9))
        model.buffers["tcnn.bn.running_mean"][:] = np_rng.normal(size=4)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        again = load_model(path)
        for name in model.parameters:
            np.testing.assert_array_equal(again.parameters[name].data,
                                          model.parameters[name].data)
        np.testing.assert_array_equal(again.buffers["tcnn.bn.running_mean"],
                                      model.buffers["tcnn.bn.running_mean"])
        assert again.config.to_dict() == tiny_config.to_dict()

    def test_same_predictions_after_reload(self, tiny_config, tmp_path, np_rng):
        model = build(tiny_config, Rng(9))
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        x = Tensor(np_rng.normal(size=(2, 1, 4, 64)).astype(np.float32))
        np.testing.assert_array_equal(load_model(path).forward(x).data,
                                      model.forward(x).data)

    @pytest.mark.parametrize("where, key", [((), "config"), ((), "arrays"),
                                            (("arrays", 0), "name"), (("arrays", 0), "shape")],
                             ids=["config", "arrays", "entry-name", "entry-shape"])
    def test_header_missing_key_named(self, tiny_config, tmp_path, rewrite_header, where, key):
        path = tmp_path / "model.ckpt"
        save_model(build(tiny_config, Rng(9)), path)

        def drop(header):
            parent = header
            for step in where:
                parent = parent[step]
            del parent[key]
            return header

        rewrite_header(path, drop)
        with pytest.raises(DataFormatError, match=f"lacks key\\(s\\) '{key}'"):
            load_model(path)

    def test_unknown_config_field_named(self, tiny_config, tmp_path, rewrite_header):
        path = tmp_path / "model.ckpt"
        save_model(build(tiny_config, Rng(9)), path)

        def add_field(header):
            header["config"]["n_experts"] = 4
            return header

        rewrite_header(path, add_field)
        with pytest.raises(DataFormatError, match="n_experts"):
            load_model(path)

    def test_legacy_token_granularity_key_loads(self, tiny_config, tmp_path, rewrite_header):
        model = build(tiny_config, Rng(9))
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        rewrite_header(path, lambda header: {**header, "config": {
            **header["config"], "token_granularity": "patch_window"}})
        again = load_model(path)
        np.testing.assert_array_equal(again.arena, model.arena)
        for name, buffer in model.buffers.items():
            np.testing.assert_array_equal(again.buffers[name], buffer)
        assert again.config == tiny_config

    def test_other_token_granularity_named(self, tiny_config, tmp_path, rewrite_header):
        path = tmp_path / "model.ckpt"
        save_model(build(tiny_config, Rng(9)), path)
        rewrite_header(path, lambda header: {**header, "config": {
            **header["config"], "token_granularity": "window"}})
        with pytest.raises(DataFormatError, match="'token_granularity' is 'window'"):
            load_model(path)

    # raw bytes replace the header; a function edits it into values of the wrong type
    @pytest.mark.parametrize("blob", [
        b"\xff{}", b"{", b"[]",
        pytest.param(lambda header: {**header, "arrays": 5}, id="arrays-int"),
        pytest.param(lambda header: {**header, "format_version": "1"}, id="version-str"),
        pytest.param(lambda header: {**header, "arrays": [{"name": "tcnn.bias", "shape": "ab"}]},
                     id="entry-shape-str"),
        pytest.param(lambda header: {**header, "arrays": [{"name": "tcnn.bias", "shape": [-4]}]},
                     id="entry-shape-negative"),
        pytest.param(lambda header: {**header, "arrays": [{"name": 3, "shape": [4]}]},
                     id="entry-name-int"),
        pytest.param(lambda header: {**header, "arrays": [
            {"name": "tcnn.kernels", "shape": [math.prod(header["arrays"][0]["shape"])]},
            *header["arrays"][1:]]}, id="entry-shape-reshaped"),
        pytest.param(lambda header: {**header, "arrays": [
            {**header["arrays"][0], "name": "tcnn.weights"}, *header["arrays"][1:]]},
                     id="entry-name-unknown"),
        pytest.param(lambda header: {**header, "config": {**header["config"], "c": "x"}},
                     id="config-c-str"),
        pytest.param(lambda header: {**header, "config": {**header["config"], "f_s": None}},
                     id="config-fs-null"),
        pytest.param(lambda header: {**header, "config": {**header["config"],
                                                          "f_s": float("nan")}},
                     id="config-fs-nan"),
        pytest.param(lambda header: {**header, "config": {**header["config"],
                                                          "local_graphs": [["a"]]}},
                     id="config-graph-entry-str"),
        pytest.param(lambda header: {**header, "config": {**header["config"],
                                                          "local_graphs": [[0, 1], 2]}},
                     id="config-graph-int"),
        pytest.param(lambda header: {**header, "config": {**header["config"],
                                                          "local_graphs": [[0.5]]}},
                     id="config-graph-entry-float"),
        pytest.param(lambda header: {**header, "config": {**header["config"],
                                                          "token_granularity": "window"}},
                     id="config-token-granularity-window"),
    ])
    def test_undecodable_header(self, tiny_config, tmp_path, rewrite_header, blob):
        path = tmp_path / "model.ckpt"
        save_model(build(tiny_config, Rng(9)), path)
        rewrite_header(path, blob if callable(blob) else lambda header: blob)
        with pytest.raises(DataFormatError, match="header at offset 12"):
            load_model(path)

    def test_corruption_detected(self, tiny_config, tmp_path):
        model = build(tiny_config, Rng(9))
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="checksum|header|magic"):
            load_model(path)
