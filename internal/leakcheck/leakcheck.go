// Package leakcheck fails tests that leak goroutines. It is the repo's
// dependency-free stand-in for goleak, scoped to what the failure-handling
// work must guarantee: no transport writer/reader/heartbeat loop, chaos
// injector, or runtime PE goroutine survives the run that spawned it.
package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// ownedPrefixes mark goroutines this repo is responsible for joining: any
// goroutine created by one of these packages that outlives the test is a
// leak, no matter what it is currently blocked on.
var ownedPrefixes = []string{
	"repro/internal/transport",
	"repro/internal/chaos",
	"repro/internal/dist",
	"repro/internal/comm",
	"repro/internal/core",
	"repro/internal/graph",
	"repro/internal/gen",
}

// Check registers a cleanup that fails t if, after a settling window,
// goroutines created by the repo's transport/runtime packages are still
// alive. Call it first in the test body.
func Check(t testing.TB) {
	t.Helper()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		var leaked []string
		for {
			leaked = owned()
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("leakcheck: %d goroutine(s) leaked:\n%s",
			len(leaked), strings.Join(leaked, "\n\n"))
	})
}

// owned returns the stacks of currently live goroutines created by one of
// the owned packages.
func owned() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		idx := strings.LastIndex(g, "created by ")
		if idx < 0 {
			continue // main/test goroutines
		}
		creator := g[idx+len("created by "):]
		for _, p := range ownedPrefixes {
			if strings.HasPrefix(creator, p) {
				out = append(out, g)
				break
			}
		}
	}
	return out
}
