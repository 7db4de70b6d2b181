import pytest

from altsign.errors import InvalidShapeError, NotInImageError
from altsign.sttree import (SttTree, ast_to_sttree, diagonal_bottoms,
                            deleted_cells, enumerate_sttrees, from_json,
                            is_monotone_triangle, sttree_to_ast, to_json,
                            validate)
from altsign.trapezoid import Trapezoid, enumerate_trapezoids

from test_trapezoid import T54

# the tree displayed for the (5,4) example
TREE54 = SttTree(
    5, (1, 0), (0, 1, 2),
    ((2,),
     (0, 3),
     (-2, 2, 4),
     (-2, 1, 3, None),
     (None, -1, 2, None, None)))


class TestShape:
    def test_paper_shape(self):
        gone = deleted_cells(5, (1, 0), (0, 1, 2))
        assert gone == {(5, 1), (5, 4), (5, 5), (4, 4)}

    def test_monotonicity_enforced(self):
        with pytest.raises(InvalidShapeError):
            deleted_cells(4, (0, 1), ())
        with pytest.raises(InvalidShapeError):
            deleted_cells(4, (), (1, 0))

    def test_interference(self):
        # s_1 = 4 deletes (1,1): SE-diagonal 4's t_4 = 4 would too
        with pytest.raises(InvalidShapeError):
            deleted_cells(4, (4,), (0, 0, 4))

    def test_too_long(self):
        with pytest.raises(InvalidShapeError):
            deleted_cells(3, (1, 1), (0, 0))


class TestEnumerate:
    def test_monotone_triangles_123(self):
        trees = enumerate_sttrees(3, (), (), (1, 2, 3))
        assert len(trees) == 7
        for tree in trees:
            assert validate(tree) is None
            assert is_monotone_triangle(tree.rows)
            assert tree.rows[2] == (1, 2, 3)

    def test_single_cell(self):
        trees = enumerate_sttrees(1, (0,), (), (5,))
        assert len(trees) == 1
        assert trees[0].rows == ((5,),)

    def test_paper_instance_contains_displayed_tree(self):
        trees = enumerate_sttrees(5, (1, 0), (0, 1, 2), (-2, -1, 2, 3, 4))
        assert validate(TREE54) is None
        assert TREE54 in trees

    def test_translation_invariance(self):
        base = len(enumerate_sttrees(3, (1,), (0, 1), (-1, 0, 2)))
        plain = len(enumerate_sttrees(3, (), (), (-1, 0, 2)))
        for c in (-2, 3):
            b = (-1 + c, 0 + c, 2 + c)
            assert len(enumerate_sttrees(3, (1,), (0, 1), b)) == base
            assert len(enumerate_sttrees(3, (), (), b)) == plain

    def test_bad_bottom_order(self):
        with pytest.raises(InvalidShapeError):
            enumerate_sttrees(2, (), (), (2, 1))

    def test_bottoms_recoverable(self):
        for tree in enumerate_sttrees(3, (1,), (0, 1), (-1, 0, 2)):
            assert diagonal_bottoms(tree) == (-1, 0, 2)
        assert diagonal_bottoms(TREE54) == (-2, -1, 2, 3, 4)

    def test_shared_bottom_cell(self):
        # s_1 = t_2 = 1 at n = 2: NE-diagonal 1 and SE-diagonal 2 both end
        # at (1, 1), so their bottom entries must agree
        assert enumerate_sttrees(2, (1,), (1,), (0, 1)) == []
        trees = enumerate_sttrees(2, (1,), (1,), (0, 0))
        assert [tree.rows for tree in trees] == [((0,), (None, None))]
        assert diagonal_bottoms(trees[0]) == (0, 0)


class TestAstCorrespondence:
    def test_paper_example_forward(self):
        assert ast_to_sttree(T54) == TREE54

    def test_paper_example_backward(self):
        assert sttree_to_ast(TREE54, 5, 4) == T54

    def test_first_24_trapezoid(self):
        t = Trapezoid(2, 4, ((1, 0, 0, 0, 0, 0), (1, 0, 0, 0)))
        tree = ast_to_sttree(t)
        assert tree.s == (1, 0) and tree.t == ()
        assert diagonal_bottoms(tree) == (-2, -1)

    def test_single_row(self):
        for t in enumerate_trapezoids(1, 4):
            tree = ast_to_sttree(t)
            assert sum(1 for row in tree.rows for v in row if v is not None) == 1

    def test_single_entry_inverse(self):
        # value -1 is column label -1, i.e. absolute column 1 when n = 1
        tree = SttTree(1, (0,), (), ((-1,),))
        t = sttree_to_ast(tree, 1, 4)
        assert t.rows == ((1, 0, 0, 0),)

    def test_roundtrip_all(self):
        for n in range(1, 5):
            for l in range(2, 6):
                for t in enumerate_trapezoids(n, l):
                    tree = ast_to_sttree(t)
                    assert validate(tree) is None
                    assert sttree_to_ast(tree, n, l) == t

    def test_not_in_image(self):
        # entry outside the trapezoid's column range
        tree = SttTree(1, (0,), (), ((5,),))
        with pytest.raises(NotInImageError):
            sttree_to_ast(tree, 1, 4)

    def test_not_in_image_column_sums(self):
        # bottoms (-1, 1): the middle trapezoid column would need sum 1
        tree = SttTree(2, (0,), (0,), ((0,), (-1, 1)))
        with pytest.raises(NotInImageError):
            sttree_to_ast(tree, 2, 4)


class TestJson:
    def test_roundtrip(self):
        for tree in enumerate_sttrees(3, (1,), (0, 1), (-1, 0, 2)):
            assert from_json(to_json(tree)) == tree
        assert from_json(to_json(TREE54)) == TREE54

    def test_rejects_invalid(self):
        bad = to_json(TREE54)
        bad["rows"][1] = [3, 0]
        with pytest.raises(ValueError):
            from_json(bad)
