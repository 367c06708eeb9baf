package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// Variant is one labelled run set-up of the paper: an engine plus the
// config bits its name stands for. ditric2 and cetric2 are DITRIC and
// CETRIC with indirect delivery; noagg is DITRIC with δ = 1, Fig. 2's
// unbuffered baseline.
type Variant struct {
	Name     string
	Algo     core.Algorithm
	Indirect bool
	NoAgg    bool
}

var variants = []Variant{
	{Name: "ditric", Algo: core.AlgoDiTric},
	{Name: "ditric2", Algo: core.AlgoDiTric, Indirect: true},
	{Name: "cetric", Algo: core.AlgoCetric},
	{Name: "cetric2", Algo: core.AlgoCetric, Indirect: true},
	{Name: "havoq", Algo: core.AlgoHavoq},
	{Name: "tric", Algo: core.AlgoTriC},
	{Name: "noagg", Algo: core.AlgoDiTric, NoAgg: true},
	{Name: "tk2d", Algo: core.AlgoTK2D},
}

// PaperSeries lists the six algorithms of Fig. 5 and 6 in the paper's order.
var PaperSeries = Variants("ditric", "ditric2", "cetric", "cetric2", "havoq", "tric")

// LookupVariant resolves a variant name.
func LookupVariant(name string) (Variant, error) {
	for _, v := range variants {
		if v.Name == name {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("unknown algorithm %q", name)
}

// Variants resolves names in order. The names are fixed in the caller's
// source, so an unknown one panics.
func Variants(names ...string) []Variant {
	vs := make([]Variant, len(names))
	for i, name := range names {
		v, err := LookupVariant(name)
		if err != nil {
			panic(err)
		}
		vs[i] = v
	}
	return vs
}

// Apply sets the variant's bits on cfg. noagg fixes δ = 1, so a cfg with
// any other non-zero Threshold is an error.
func (v Variant) Apply(cfg core.Config) (core.Config, error) {
	cfg.Indirect = v.Indirect
	if v.NoAgg {
		if cfg.Threshold != 0 && cfg.Threshold != 1 {
			return cfg, fmt.Errorf("noagg is ditric with δ = 1; it cannot take δ = %d", cfg.Threshold)
		}
		cfg.Threshold = 1
	}
	return cfg, nil
}

// Run is core.Run of the variant's engine under its bits.
func (v Variant) Run(g *graph.Graph, cfg core.Config) (*core.Result, error) {
	cfg, err := v.Apply(cfg)
	if err != nil {
		return nil, err
	}
	return core.Run(v.Algo, g, cfg)
}
