package main

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestApproxConfig pins how -approx reads -algo: cetric runs direct
// delivery, cetric2 keeps its indirection, and every other algorithm is an
// error naming it rather than a silent CETRIC run.
func TestApproxConfig(t *testing.T) {
	for _, tc := range []struct {
		algo     core.Algorithm
		ok       bool
		indirect bool
	}{
		{core.AlgoCetric, true, false},
		{core.AlgoCetric2, true, true},
		{core.AlgoDiTric, false, false},
		{core.AlgoDiTric2, false, false},
		{core.AlgoTK2D, false, false},
		{core.AlgoTriC, false, false},
		{core.AlgoHavoq, false, false},
		{"seq", false, false},
	} {
		cfg, err := approxConfig(tc.algo, core.Config{P: 4, Threads: 2})
		if !tc.ok {
			if err == nil || !strings.Contains(err.Error(), string(tc.algo)) {
				t.Errorf("-algo %s -approx: err %v, want an error naming %s", tc.algo, err, tc.algo)
			}
			continue
		}
		if err != nil {
			t.Errorf("-algo %s -approx: %v", tc.algo, err)
			continue
		}
		if cfg.Indirect != tc.indirect || cfg.P != 4 || cfg.Threads != 2 {
			t.Errorf("-algo %s -approx: cfg %+v, want Indirect=%v with P and Threads kept",
				tc.algo, cfg, tc.indirect)
		}
	}
}
