"""Composed MAPs keep their state order, labels and matrices.

Exact composition carries integer state codes, which ``conftest.labels``
decodes into one label forest per state.  ``DIGESTS`` pins, bit for bit, the
labels, ``d0`` and ``d1`` of ``build_tree`` and the labels, ``a``, ``b`` and ``d1``
of ``delay_pencil`` (with its zero-delay limit), lumped and unlumped, on
``configs/`` (also under ``zero_delay_variant``), ``flat_tree(8)``, the
lumped ternary depth-2 tree, coxian_three_level and eight seeded generated
trees.  The digests were taken from the engine that built every label during
composition.  On these and on hypothesis-generated trees (more examples
under ``-m slow``) the labels equal ``reference_labels``, which derives them
from the spec alone.
"""

import hashlib
from dataclasses import replace
from itertools import count
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings

from ttldelay.cli import load_config
from ttldelay.distributions import Coxian, Erlang, Exponential, GeneralPH
from ttldelay.hierarchy import build_tree, delay_pencil
from ttldelay.spec import CacheNode, CacheTreeSpec, zero_delay_variant

from conftest import flat_tree, labels, reference_labels
from test_sparse_engine import LARGE_CASES, TERNARY, trees

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GENERATED_STATES = 2000  # bound on a generated tree's raw product state count
# Seeds whose trees hold runs of copied leaves and of copied subtrees, delays
# whose entry skips a phase or spreads over two, and Coxian arrivals.
GENERATED_SEEDS = (0, 3, 4, 6, 9, 11, 13, 15)


def _ph(rng, kinds, max_phases):
    kind = kinds[rng.integers(len(kinds))]
    rate = float(rng.uniform(0.2, 5.0))
    if kind == "exp" or max_phases < 2:
        return Exponential(rate)
    if kind == "hyper":  # entry spread over two phases
        p, other = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.2, 5.0))
        return GeneralPH((p, 1.0 - p), ((-rate, 0.0), (0.0, -other)))
    if kind == "skip" and max_phases >= 3:  # entry skips the middle phase
        p, r2, r3 = (float(x) for x in rng.uniform((0.05, 0.2, 0.2), (0.95, 5.0, 5.0)))
        return GeneralPH((p, 0.0, 1.0 - p),
                         ((-rate, rate, 0.0), (0.0, -r2, r2), (0.0, 0.0, -r3)))
    if kind == "erlang":
        return Erlang(int(rng.integers(2, max_phases + 1)), rate)
    return Coxian((rate, float(rng.uniform(0.2, 5.0))), (float(rng.uniform(0.05, 0.95)),))


def generated_tree(seed):
    """A seeded random tree of depth up to 2 with at most ``GENERATED_STATES``
    raw states, whose siblings are often copies of the sibling before them."""
    rng = np.random.default_rng(seed)
    delays, arrivals = ("exp", "erlang", "hyper", "skip"), ("exp", "erlang", "coxian")

    def ttl():
        return Exponential(float(rng.uniform(0.2, 2.0)))

    def node(depth):
        if depth == 0 or rng.random() < 0.3:
            return CacheNode("", ttl(), _ph(rng, delays, 3), arrival=_ph(rng, arrivals, 2))
        children = []
        for _ in range(int(rng.integers(1, 3))):
            children.append(node(depth - 1))
            if rng.random() < 0.6:
                children.append(children[-1])
        return CacheNode("", ttl(), _ph(rng, delays, 2), children=tuple(children))

    def with_ids(n, ids):
        return replace(n, id=f"c{next(ids)}",
                       children=tuple(with_ids(c, ids) for c in n.children))

    while True:
        spec = CacheTreeSpec(with_ids(node(2), count()))
        if not spec.root.is_leaf and spec.state_count() <= GENERATED_STATES:
            return spec


def digest(forests, *matrices):
    h = hashlib.sha256(repr(list(forests)).encode())
    for m in matrices:
        for arr in (m.data, m.indices.astype(np.int64), m.indptr.astype(np.int64)):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def digests(spec, lump):
    """(build_tree digest, delay_pencil digest) of ``spec``."""
    built = build_tree(spec, lump_per_level=lump)
    pencil = delay_pencil(spec, lump_per_level=lump)
    limit = pencil.limit()
    return (
        digest(labels(built), built.d0, built.d1),
        digest(labels(pencil), pencil.a, pencil.b, pencil.d1)
        + digest(labels(limit), limit.d0, limit.d1),
    )


CONFIG_SPECS = {path.stem: load_config(path)[0] for path in sorted(CONFIGS.glob("*.yaml"))}
CASES = {
    **CONFIG_SPECS,
    **{f"{name}_zero_delay": zero_delay_variant(spec) for name, spec in CONFIG_SPECS.items()},
    "flat_tree_8": flat_tree(8),
    "ternary_depth2": TERNARY,
    "coxian_three_level": LARGE_CASES["coxian_three_level"],
    **{f"generated_{seed}": generated_tree(seed) for seed in GENERATED_SEEDS},
}
# 389,017 states unlumped, above the default state cap.
LUMPED_ONLY = {"ternary_depth2"}

DIGESTS = {
    ('binary_three_level_mme2', False): ('862211639ce5f257', 'bb6a5e928d257728ff90f925dc72d902'),
    ('binary_three_level_mme2', True): ('3f557c05ef1ef7fc', '0e33063119b09a840c47b3d9b92c8736'),
    ('binary_two_level_mmm', False): ('3a48fb461887a77d', 'aa7d50ae3bc6af6d8316c66520431dcd'),
    ('binary_two_level_mmm', True): ('9136a73f825c2613', 'c742cdfd437c5d1e084d608862c4d3c3'),
    ('single_cache_mmm', False): ('3f0703bfe3931bea', 'd08f3e0aa6f2986be06cabbb876f9de7'),
    ('single_cache_mmm', True): ('3f0703bfe3931bea', 'd08f3e0aa6f2986be06cabbb876f9de7'),
    ('binary_three_level_mme2_zero_delay', False): ('910df4e9a6fbf809', 'dd4f7661221c510eff90f925dc72d902'),
    ('binary_three_level_mme2_zero_delay', True): ('a6b75c346b059905', 'bc78fdfa989d1d0c0c47b3d9b92c8736'),
    ('binary_two_level_mmm_zero_delay', False): ('0c07eca5d3d2ea6b', '83b124d5b553ec3c8316c66520431dcd'),
    ('binary_two_level_mmm_zero_delay', True): ('bcadeac0ba51b518', 'b650f66efe7bef21084d608862c4d3c3'),
    ('single_cache_mmm_zero_delay', False): ('8f6bf9ccf9e14b9e', '9ad1cf05d95b4c93e06cabbb876f9de7'),
    ('single_cache_mmm_zero_delay', True): ('8f6bf9ccf9e14b9e', '9ad1cf05d95b4c93e06cabbb876f9de7'),
    ('flat_tree_8', False): ('9a1f7b4bb1d82a39', '4d86f70ca7e24ce616c7bd7cdb0e1115'),
    ('flat_tree_8', True): ('0b1f23b7e51a4f19', 'aab1baf95c362c01d89e427d1a5641bc'),
    ('ternary_depth2', True): ('004b1618655603a3', '05a30e673572c88a5c6db821565aa780'),
    ('coxian_three_level', False): ('bb2fc2f4410e0ce9', '6d4622566d4d5ba52701371b5c7108ad'),
    ('coxian_three_level', True): ('8bf4ac9ec4e59b68', '1d64d036ac942a57f06f1299750d507a'),
    ('generated_0', False): ('e9f7e3f3f9fdeeba', 'a769706deb6e4330a13af61e4c701e97'),
    ('generated_0', True): ('e9f7e3f3f9fdeeba', 'a769706deb6e4330a13af61e4c701e97'),
    ('generated_3', False): ('45537ed110872ccc', '4c0cab3bf62de34ce8091e60f60d32ea'),
    ('generated_3', True): ('cca977aab0b62d5b', '760d490fe9dad580d8699d328d39d9c8'),
    ('generated_4', False): ('fb465e5a02aaec7c', '92fa83dd15abdda59d9fc53e2d0b5bd4'),
    ('generated_4', True): ('0cdc98c3f175c3ae', 'f4538f8370e7a73ebcc7c078889afa8b'),
    ('generated_6', False): ('1abf6f55c7e563b2', 'f828c07d608b30fbbdc1476f3bcd7955'),
    ('generated_6', True): ('d12ab05cd0c65e14', '979d4ed68bfe9c246bae47ba9e4c650d'),
    ('generated_9', False): ('7463045738329d08', 'd25a1056e4fa7135783e4c8bc36a62ec'),
    ('generated_9', True): ('35bb4b3d2c8fa56a', '47e9b4378d03173206a1bf893f9eae9e'),
    ('generated_11', False): ('1799391d3e0d231d', 'c0fb830603ffe65af988385fe863695e'),
    ('generated_11', True): ('8eca9f5dedccd5b2', 'aae5c3bc020c93e0d2e166c86398e9a6'),
    ('generated_13', False): ('aef7690cc4d9ee30', '8165a8d6500a88fb88fc0b3d414977d5'),
    ('generated_13', True): ('375130289848efc5', '6cdb1d0c20b310cac8deb2f6e200a1a7'),
    ('generated_15', False): ('8d5ff60d7e43c364', 'd217df0cb7cb52869af3e79b3551b2f9'),
    ('generated_15', True): ('19d44c823f4857f5', '98d39e0a032f9eeb427b5bb98f915a54'),
}


@pytest.mark.parametrize("name, lump", list(DIGESTS), ids=[f"{n}-{l}" for n, l in DIGESTS])
def test_composition_matches_pinned_digests(name, lump):
    assert digests(CASES[name], lump) == DIGESTS[name, lump]


@pytest.mark.parametrize("name", list(CASES))
def test_labels_follow_the_composition_rules(name):
    spec = CASES[name]
    for lump in (True,) if name in LUMPED_ONLY else (False, True):
        expected = tuple(reference_labels(spec.root, lump))
        assert labels(build_tree(spec, lump_per_level=lump)) == expected
        assert labels(delay_pencil(spec, lump_per_level=lump)) == expected


def check_labels(spec):
    for lump in (False, True):
        expected = tuple(reference_labels(spec.root, lump))
        assert labels(build_tree(spec, lump_per_level=lump)) == expected
        assert labels(delay_pencil(spec, lump_per_level=lump)) == expected


@hyp_settings(max_examples=15, deadline=None)
@given(trees())
def test_generated_tree_labels_follow_the_composition_rules(spec):
    check_labels(spec)


@pytest.mark.slow
@hyp_settings(max_examples=200, deadline=None)
@given(trees())
def test_generated_tree_labels_follow_the_composition_rules_many(spec):
    check_labels(spec)
