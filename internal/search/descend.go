package search

// passesPerAxis bounds Descend at 2×len(Axes) passes over the axes, enough
// for convergence on every lattice tried so far.
const passesPerAxis = 2

// Descend runs deterministic coordinate ascent toward the worst point: from
// each axis's lattice midpoint it repeatedly sweeps the axes in order,
// evaluating every value on the current axis with the others held fixed and
// moving to the strictly worst one under the Worse order (a strict total
// order, so the walk is a pure function of the scores). It stops after a
// full pass with no move, or after 2×len(Axes) passes (passesPerAxis).
// Points visited twice are served from the frontier cache, so convergence
// costs nothing beyond the frontier of new evaluations. The returned outcome ranks every
// visited point worst-first; on ErrStopped it holds the prefix completed.
//
// Descend trades Grid's exhaustiveness for cost: it evaluates
// O(passes × Σ|axis|) points instead of Π|axis|, which is the only way to
// search 3+ axes at a meaningful per-point seed block. Like any local
// search it can sit on a ridge; the family presets keep axes monotone
// enough in practice that the summit it finds is the grid's too (the tests
// pin this on a small lattice).
func Descend(spec Spec) (*Outcome, error) {
	s, err := newSearcher(&spec)
	if err != nil {
		return nil, err
	}
	passes := passesPerAxis * len(spec.Axes)
	cur := make(point, len(spec.Axes))
	for i, ax := range spec.Axes {
		cur[i] = len(ax.Values) / 2
	}
	best, err := s.visit(cur)
	if err != nil {
		return finish(s, err)
	}
	for pass := 0; pass < passes; pass++ {
		moved := false
		for i, ax := range spec.Axes {
			for j := range ax.Values {
				if j == cur[i] {
					continue
				}
				cand := append(point(nil), cur...)
				cand[i] = j
				res, err := s.visit(cand)
				if err != nil {
					return finish(s, err)
				}
				if Worse(res, best) {
					cur, best, moved = cand, res, true
				}
			}
		}
		if !moved {
			break
		}
	}
	return s.outcome(), nil
}

// finish maps a mid-walk error to the partial outcome (ErrStopped) or a
// plain failure.
func finish(s *searcher, err error) (*Outcome, error) {
	if err == ErrStopped {
		return s.outcome(), err
	}
	return nil, err
}
