import random

from hypothesis import given, settings, strategies as st

from polytower import snf

from util import invariant_factors, matmul, rational_rank


def check_transforms(matrix, form):
    product = matmul(matmul(form.left, matrix), form.right)
    for i in range(form.rows):
        for j in range(form.cols):
            expected = form.diagonal[i] if i == j and i < len(form.diagonal) else 0
            assert product[i][j] == expected


def test_known_diagonalisation():
    matrix = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    form = snf.smith_normal_form(matrix)
    assert [d for d in form.diagonal if d] == [2, 2, 156]
    check_transforms(matrix, form)


def test_divisibility_chain_and_sign():
    rng = random.Random(1)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        form = snf.smith_normal_form(matrix)
        diag = [d for d in form.diagonal if d]
        assert all(d > 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        check_transforms(matrix, form)
        assert form.rank == rational_rank(matrix)


def test_zero_and_empty_shapes():
    assert snf.smith_normal_form([[0, 0], [0, 0]]).rank == 0
    assert snf.smith_normal_form([], cols=0).rank == 0
    assert snf.smith_normal_form([[], []], cols=0).rank == 0
    form = snf.smith_normal_form([[0, 0, 0]], cols=3)
    assert form.rank == 0


def test_kernel_basis_annihilates():
    rng = random.Random(2)
    for _ in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(1, 6)
        matrix = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        red = snf.eliminate(snf.sparse_columns(matrix, cols), rows, right=True)
        basis = [red.right[j] for j in red.free_columns()]
        assert len(basis) == cols - rational_rank(matrix)
        for vec in basis:
            assert all(sum(row[j] * a for j, a in vec.items()) == 0 for row in matrix)


def test_solve_round_trip():
    rng = random.Random(3)
    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        matrix = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        x = [rng.randint(-4, 4) for _ in range(cols)]
        b = snf.mat_vec(matrix, x)
        solution = snf.solve_matrix(matrix, [b])
        assert solution is not None
        assert snf.mat_vec(matrix, solution[0]) == b


def test_solve_detects_impossible():
    assert snf.solve_matrix([[2]], [[1]]) is None
    assert snf.solve_matrix([[0]], [[1]]) is None


@given(st.lists(st.lists(st.integers(-20, 20), min_size=1, max_size=4), min_size=1, max_size=4).filter(lambda m: len({len(r) for r in m}) == 1))
@settings(max_examples=60, deadline=None)
def test_transforms_are_unimodular(matrix):
    form = snf.smith_normal_form(matrix)
    check_transforms(matrix, form)
    n = len(form.left)
    left_factors = invariant_factors(form.left, cols=n)
    assert left_factors == [1] * n
    m = len(form.right)
    right_factors = invariant_factors(form.right, cols=m)
    assert right_factors == [1] * m
