"""The keyed exponential, which multiplies only aligned column blocks, gives
the full product's block bit for bit, signed zeros included.

Its bits follow the BLAS kernel's grouping of columns, so CI reruns this file
under several OpenBLAS core types (OPENBLAS_CORETYPE).
"""

import numpy as np
import pytest

from bosonreg import checks, coherent, gates
from test_checks import CONFIG_IDS, CONFIGS


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_block_of_full_product(h, keys):
    block = coherent._expm_i(h, keys)
    full = coherent._expm_i(h)[np.ix_(keys, keys)]
    assert block.shape == full.shape == (len(keys), len(keys))
    assert np.array_equal(_bits(block), _bits(full))


def _random_hermitian(size, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return (a + a.conj().T) / 2


@pytest.mark.parametrize("gate_rank", range(2, 11))
@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_verify_generator_block_is_the_full_products(cfg, gate_rank):
    for z in checks._Z_SET:
        spec = coherent.CoherentSpec(z, cfg.params, gate_rank)
        generator = gates.circuit_to_matrix(coherent.displacement_generator_gateform(spec).full)
        h = coherent._hermitian_of(generator)
        _assert_block_of_full_product(h, [1 << n for n in range(gate_rank)])


@pytest.mark.parametrize("log_size", range(4, 11))
def test_dense_hermitian_block_is_the_full_products(log_size):
    h = _random_hermitian(1 << log_size, seed=1000 + log_size)
    _assert_block_of_full_product(h, [1 << n for n in range(log_size)])


@pytest.mark.parametrize("size", [201, 203])
def test_a_key_in_the_last_column_keeps_the_bits(size):
    """At 201 the last aligned block holds one column, which numpy would
    multiply by gemv; it is widened by the block before it.  The last key's
    row can be a tail row of a BLAS thread's row range, which the Haswell and
    Zen kernels round their own way (see _expm_i), so only the other rows are
    compared bit for bit."""
    h = _random_hermitian(size, seed=size)
    keys = [0, 1, 2, 4, 8, size - 1]
    block = coherent._expm_i(h, keys)
    full = coherent._expm_i(h)[np.ix_(keys, keys)]
    assert np.array_equal(_bits(block[:-1]), _bits(full[:-1]))
    assert np.abs(block[-1] - full[-1]).max() <= 1e-14


def test_keys_in_any_order_give_the_permuted_block():
    h = _random_hermitian(64, seed=64)
    _assert_block_of_full_product(h, [32, 1, 16, 2, 8, 4])
