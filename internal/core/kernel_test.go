package core

import "testing"

// TestComposedKernelResolution pins which compositions take the
// devirtualized composed step (kernel.go) and which keep the generic
// loop, in idealized and speculative replay alike.
func TestComposedKernelResolution(t *testing.T) {
	path := func() ExitPredictor {
		return MustPathExit(MustDOLC(7, 5, 6, 6, 3), LEH2, PathExitOptions{SkipSingleExit: true})
	}
	global := func() ExitPredictor { p, _ := NewGlobalExit(7, 14, 14, LEH2); return p }
	per := func() ExitPredictor { p, _ := NewPerExit(7, 12, 14, 14, LEH2); return p }
	cttb := func() TargetBuffer { return MustCTTB(MustDOLC(7, 4, 4, 5, 3)) }
	cases := []struct {
		name string
		p    *HeaderPredictor
		want bool
	}{
		{"path+ras+cttb", NewHeaderPredictor("", path(), NewRAS(32), cttb()), true},
		{"global+ras+cttb", NewHeaderPredictor("", global(), NewRAS(32), cttb()), true},
		{"per+ras+cttb", NewHeaderPredictor("", per(), NewRAS(32), cttb()), true},
		{"path, no RAS", NewHeaderPredictor("", path(), nil, cttb()), true},
		{"path, no CTTB", NewHeaderPredictor("", path(), NewRAS(1), nil), true},
		{"ideal exit", NewHeaderPredictor("", NewIdealPath(7, LEH2), NewRAS(32), cttb()), false},
		{"ideal CTTB", NewHeaderPredictor("", path(), NewRAS(32), NewIdealCTTB(7)), false},
		{"delayed exit", NewHeaderPredictor("", NewDelayedUpdate(path(), 4), NewRAS(32), cttb()), false},
	}
	for _, c := range cases {
		if _, ok := c.p.kernel(); ok != c.want {
			t.Errorf("%s: kernel resolved %v, want %v", c.name, ok, c.want)
		}
		s, err := NewSpecTaskSession(c.p, 4)
		if err != nil {
			if c.want {
				t.Errorf("%s: %v", c.name, err)
			}
			continue
		}
		if s.fast != c.want {
			t.Errorf("%s: spec session fast %v, want %v", c.name, s.fast, c.want)
		}
	}
	if s, err := NewSpecTaskSession(NewCTTBOnly(cttb()), 4); err != nil || s.fast {
		t.Errorf("CTTB-only: spec session fast %v (err %v), want the generic step", s != nil && s.fast, err)
	}
}
