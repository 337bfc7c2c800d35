package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestEveryTracerDetectedPast636 drives both traffic workloads for longer
// than 636 tracers, the count at which tracer origins of 65536 and above
// used to arrive as AS_TRANS and stop matching (see NOTES.md), and
// requires every tracer to be detected by prefix and exact origin, every
// sent update to be accounted for and no alert to be foreign.
func TestEveryTracerDetectedPast636(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "quicksand")
	build := exec.Command("go", "build", "-o", bin, "./cmd/quicksand")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, workload := range []string{"paced-tor", "flood-table"} {
		t.Run(workload, func(t *testing.T) {
			work := filepath.Join(dir, workload)
			if err := os.MkdirAll(work, 0o755); err != nil {
				t.Fatal(err)
			}
			_, phases, invalid, err := runTraffic(trafficConfig{
				workload: workload, seed: 7, phase: 2 * time.Second, tracerInterval: 1500 * time.Microsecond,
				phases: 1, daemonBin: bin, workDir: work,
			})
			if err != nil {
				t.Fatal(err)
			}
			res := phases[0]
			if n := len(res.tracers); n <= 636 {
				t.Fatalf("only %d tracers injected; the test needs more than 636", n)
			}
			lost := 0
			for _, tr := range res.tracers {
				if tr.seen == 0 {
					lost++
				}
			}
			if lost != 0 {
				t.Errorf("%d of %d tracers lost", lost, len(res.tracers))
			}
			for _, c := range res.failedChecks {
				t.Errorf("check failed: %s", c)
			}
			for _, v := range invalid {
				t.Errorf("invalid: %s", v)
			}
		})
	}
}
