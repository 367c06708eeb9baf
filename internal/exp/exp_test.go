package exp

import (
	"strings"
	"testing"
	"time"
)

// Tiny options so the whole harness runs in seconds under `go test`.
func tinyOpts() Options { return Options{ScaleShift: -5, MaxP: 4, Seed: 7} }

func TestTableFormatting(t *testing.T) {
	tab := NewTable("demo", "a", "bb", "ccc")
	tab.Row(1, "x", 2.5)
	tab.Row(1500*time.Millisecond, 3.0, "y")
	var sb strings.Builder
	tab.Write(&sb)
	out := sb.String()
	if !strings.Contains(out, "## demo") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "1.50s") {
		t.Fatal("duration not formatted")
	}
	if !strings.Contains(out, "| a ") {
		t.Fatal("missing header")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title, blank, header, separator, two rows.
	if len(lines) != 6 {
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{2 * time.Second, "2.00s"},
		{1500 * time.Microsecond, "1.50ms"},
		{800 * time.Nanosecond, "800ns"},
		{15 * time.Microsecond, "15.0µs"},
	}
	for _, c := range cases {
		if got := formatDuration(c.d); got != c.want {
			t.Errorf("formatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestHumanCount(t *testing.T) {
	cases := []struct {
		v    int64
		want string
	}{
		{5, "5"}, {1500, "1.5k"}, {2500000, "2.50M"}, {3200000000, "3.20G"},
	}
	for _, c := range cases {
		if got := humanCount(c.v); got != c.want {
			t.Errorf("humanCount(%d) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestTable1Runs(t *testing.T) {
	var sb strings.Builder
	if err := Table1(&sb, tinyOpts()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"live-journal", "usa", "friendster"} {
		if !strings.Contains(sb.String(), name) {
			t.Fatalf("Table 1 missing %s", name)
		}
	}
}

func TestFig2Runs(t *testing.T) {
	var sb strings.Builder
	if err := Fig2(&sb, tinyOpts()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no buffering") {
		t.Fatal("Fig 2 missing unbuffered variant")
	}
}

func TestFig5Runs(t *testing.T) {
	var sb strings.Builder
	opt := tinyOpts()
	if err := Fig5(&sb, opt); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, fam := range []string{"rgg2d", "rhg", "gnm", "rmat"} {
		if !strings.Contains(out, fam) {
			t.Fatalf("Fig 5 missing family %s", fam)
		}
	}
	for _, algo := range []string{"ditric", "ditric2", "cetric", "cetric2", "havoq", "tric"} {
		if !strings.Contains(out, algo) {
			t.Fatalf("Fig 5 missing algorithm %s", algo)
		}
	}
}

func TestFig7Runs(t *testing.T) {
	var sb strings.Builder
	if err := Fig7(&sb, tinyOpts()); err != nil {
		t.Fatal(err)
	}
	for _, ph := range []string{"preprocess", "local", "contraction", "global"} {
		if !strings.Contains(sb.String(), ph) {
			t.Fatalf("Fig 7 missing phase %s", ph)
		}
	}
}

func TestFig8Runs(t *testing.T) {
	var sb strings.Builder
	if err := Fig8(&sb, tinyOpts()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "threads") {
		t.Fatal("Fig 8 missing threads column")
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full ablation sweep")
	}
	var sb strings.Builder
	if err := Ablate(&sb, tinyOpts()); err != nil {
		t.Fatal(err)
	}
	for _, marker := range []string{"threshold", "contraction", "indirection", "AMQ", "baselines"} {
		if !strings.Contains(sb.String(), marker) {
			t.Fatalf("ablations missing %q section", marker)
		}
	}
}
