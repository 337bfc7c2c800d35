// Command perfbench is the repository benchmark. One run drives a
// `quicksand serve` daemon, built from the same tree, with one of two
// BGP traffic mixes while a client polls its /alerts, then runs the 73K
// routing study in a process of its own. It checks the outputs and prints
// one JSON result line last. See NOTES.md for the workloads, the metrics
// and how to run it.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	tracerInterval = 2 * time.Millisecond // 500 tracers per second of phase
	// daemons is how many daemons a run sets up and measures in turn,
	// each for an equal share of --seconds, and how many times the study
	// sets up its graph. Medians are reported.
	daemons       = 3
	replayUpdates = 400000 // updates per per-layer replay
)

// exitInvalid is the exit code of a run whose generator broke its
// schedule or resource budget: it reports nothing.
const exitInvalid = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "traffic mix: flood-table or paced-tor")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 24, "timed traffic, split evenly across the daemons")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	bin := fs.String("quicksand", "", "the quicksand binary under test")
	state := fs.String("state", ".bench_build", "directory for logs, traces and run history")
	studyChild := fs.Bool("study-child", false, "run only the 73K study and print it as JSON (used by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *studyChild {
		res, err := runStudy(*seed, daemons, *trace == 1, *state)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench study:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintln(stderr, "perfbench study:", err)
			return 1
		}
		return 0
	}
	if *workload != "flood-table" && *workload != "paced-tor" {
		fmt.Fprintf(stderr, "perfbench: -workload must be flood-table or paced-tor, got %q\n", *workload)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *bin == "" {
		fmt.Fprintln(stderr, "perfbench: need -seconds >= 1, -trace 0|1 and -quicksand")
		return 2
	}
	b := &bench{workload: *workload, seed: *seed, traced: *trace == 1, bin: *bin, state: *state,
		seconds: time.Duration(*seconds) * time.Second, stdout: stdout, stderr: stderr}
	code, err := b.run()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
	}
	return code
}

// bench is one benchmark run.
type bench struct {
	workload string
	seed     int64
	traced   bool
	bin      string
	state    string
	seconds  time.Duration
	stdout   io.Writer
	stderr   io.Writer
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (b *bench) run() (int, error) {
	for _, dir := range []string{"run", "trace", "results"} {
		if err := os.MkdirAll(filepath.Join(b.state, dir), 0o755); err != nil {
			return 1, err
		}
	}
	var rec *recorder
	var sampleEvery time.Duration
	if b.traced {
		rec = &recorder{}
		sampleEvery = 100 * time.Millisecond
	}
	in, phases, invalid, err := runTraffic(trafficConfig{
		workload: b.workload, seed: b.seed, phase: b.seconds / daemons, tracerInterval: tracerInterval,
		phases: daemons, daemonBin: b.bin, workDir: filepath.Join(b.state, "run"),
		rec: rec, sampleEvery: sampleEvery,
	})
	if err != nil {
		return 1, err
	}
	for k, ph := range phases {
		offered := float64(ph.bgSent) / ph.elapsed.Seconds()
		ups, cpu := phaseRates(ph)
		p50, p99 := latencyWindows(ph)
		fmt.Fprintf(b.stderr, "perfbench: %s daemon %d: set-up %.3f s; phase %.2f s, %.0f background updates/s offered, %.0f ingested, %.3f us CPU each, %d tracers; generator late p50 %.3f p99 %.3f max %.3f ms; %.0f%% of the phase in SendRaw; per window: alert p50 %.3v ms, p99 %.3v ms\n",
			b.workload, k, ph.setupS, ph.elapsed.Seconds(), offered, ups, cpu, len(ph.tracers), quantile(ph.lateMS, 0.5),
			quantile(ph.lateMS, 0.99), quantile(ph.lateMS, 1), 100*ph.blocked.Seconds()/ph.elapsed.Seconds(), p50, p99)
		if b.workload != "paced-tor" {
			continue
		}
		if late := quantile(ph.lateMS, 0.99); late > ms(maxLateP99) {
			invalid = append(invalid, fmt.Sprintf("daemon %d: generator p99 lateness %.3f ms exceeds %v", k, late, maxLateP99))
		}
		if offered < 0.99*pacedRate {
			invalid = append(invalid, fmt.Sprintf("daemon %d: generator offered %.0f updates/s of the %d scheduled", k, offered, pacedRate))
		}
	}
	if len(invalid) > 0 {
		return exitInvalid, fmt.Errorf("invalid run, not reported: %s", strings.Join(invalid, "; "))
	}

	st, err := b.runStudyProcess()
	if err != nil {
		return 1, err
	}
	fp := fingerprint(st.GOMAXPROCS)
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(b.stdout, "fingerprint %s\n", fpJSON)

	e2e, err := endToEnd(phases, st)
	if err != nil {
		return 1, err
	}
	res := result{Attempted: len(in.tracers)}
	checks := append([]string(nil), st.FailedChecks...)
	for k, ph := range phases {
		for _, c := range ph.failedChecks {
			checks = append(checks, fmt.Sprintf("daemon %d: %s", k, c))
		}
		for _, t := range ph.tracers {
			if t.seen == 0 {
				res.Failed++
			}
		}
	}

	if !b.traced {
		res.Metrics = e2e
		if err := b.recordPlain(e2e, alertLatency(phases), fp); err != nil {
			return 1, err
		}
	} else {
		layers, wf, err := perLayer(phases, st)
		if err != nil {
			return 1, err
		}
		checks = append(checks, wf.failedChecks...)
		res.Metrics = layers
		b.printWaterfall(phases, wf)
		b.printOverhead(e2e, layers)
		tracePath := filepath.Join(b.state, "trace", fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
		addTracerSpans(rec, phases)
		for _, sp := range st.Spans { // re-numbered: ids are per process
			rec.add(sp.Name, sp.Trace, 0, sp.Start, sp.End, sp.Attrs)
		}
		if err := rec.writeJSONL(tracePath); err != nil {
			return 1, err
		}
		fmt.Fprintf(b.stdout, "spans: %d written to %s\n", len(rec.spans), tracePath)
	}
	for _, c := range checks {
		fmt.Fprintln(b.stderr, "perfbench: check failed:", c)
	}
	res.Correct = len(checks) == 0
	out, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(b.stdout, "%s\n", out)
	if !res.Correct {
		return 1, errors.New("output checks failed")
	}
	return 0, nil
}

// runStudyProcess runs the 73K study in a process of its own, so its
// peak RSS and GOMAXPROCS are its own and the traffic phase's buffers
// are gone.
func (b *bench) runStudyProcess() (*studyResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-study-child", "-seed", strconv.FormatInt(b.seed, 10),
		"-trace", strconv.Itoa(map[bool]int{false: 0, true: 1}[b.traced]), "-state", b.state)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, b.stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("study process: %w", err)
	}
	st := &studyResult{}
	if err := json.Unmarshal(out.Bytes(), st); err != nil {
		return nil, fmt.Errorf("study process output: %w", err)
	}
	return st, nil
}

// addTracerSpans records each detected tracer as a root span from due to
// seen with its wire and deliver children; the trace id is the tracer's
// origin AS, unique in the run.
func addTracerSpans(rec *recorder, phases []*phaseResult) {
	for _, ph := range phases {
		for i, t := range ph.tracers {
			if t.seen == 0 {
				continue
			}
			id := int64(ph.specs[i].origin)
			root := rec.add("tracer", id, 0, t.due, t.seen, map[string]any{"prefix": ph.specs[i].prefix.String()})
			rec.add("tracer.wire", id, root, t.due, t.alertAt, nil)
			rec.add("tracer.deliver", id, root, t.alertAt, t.seen, map[string]any{"poll_span": t.poll})
		}
	}
}

func (b *bench) printWaterfall(phases []*phaseResult, wf *waterfall) {
	w := bufio.NewWriter(b.stdout)
	defer w.Flush()
	fmt.Fprintln(w, "waterfall: per tracer, ms from its due time: total = wire (due -> daemon socket-read stamp) + deliver (stamp -> client sees alert)")
	for k, ph := range phases {
		for i, t := range ph.tracers {
			spec := ph.specs[i]
			if t.seen == 0 {
				fmt.Fprintf(w, "daemon %d tracer AS%d %-18s LOST\n", k, uint32(spec.origin), spec.prefix)
				continue
			}
			fmt.Fprintf(w, "daemon %d tracer AS%d %-18s total %8.3f = wire %8.3f + deliver %8.3f\n", k, uint32(spec.origin),
				spec.prefix, float64(t.seen-t.due)/1e6, float64(t.alertAt-t.due)/1e6, float64(t.seen-t.alertAt)/1e6)
		}
	}
	fmt.Fprintf(w, "waterfall p50: total %.3f ms, wire %.3f ms, deliver %.3f ms; inside deliver, monitord_detection_seconds p50 %.3f ms (%.1f%% of deliver)\n",
		wf.totalP50, wf.wireP50, wf.deliverP50, wf.detectP50, 100*wf.detectP50/wf.deliverP50)
	fmt.Fprintf(w, "unattributed: alert p50 %.3f - wire p50 %.3f - detect p50 %.3f - /alerts round trip p50 %.3f = %.3f ms, %.1f%% of alert p50 (target <= 10%%)\n",
		wf.totalP50, wf.wireP50, wf.detectP50, wf.getP50, wf.residual*wf.totalP50, 100*wf.residual)
}

// historyFile holds the end-to-end metrics of the plain runs of this
// checkout, one JSON object per line, for the traced run's overhead
// report.
func (b *bench) historyFile() string {
	return filepath.Join(b.state, "results", b.workload+".jsonl")
}

func (b *bench) recordPlain(e2e map[string]metric, latency map[string]float64, fp map[string]any) error {
	line, err := json.Marshal(map[string]any{"seed": b.seed, "seconds": b.seconds.Seconds(), "metrics": e2e,
		"latency": latency, "fingerprint": fp})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(b.historyFile(), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printOverhead compares the traced run's end-to-end numbers and alert
// latency with the median of the plain runs of the same length recorded
// in this checkout.
func (b *bench) printOverhead(e2e, layers map[string]metric) {
	traced := map[string]float64{}
	for k, m := range e2e {
		traced[k] = m.Value
	}
	for _, k := range []string{"alert_p50_ms", "alert_p99_ms"} {
		traced[k] = layers[k].Value
	}
	raw, err := os.ReadFile(b.historyFile())
	plain := map[string][]float64{}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		var h struct {
			Seconds float64            `json:"seconds"`
			Metrics map[string]metric  `json:"metrics"`
			Latency map[string]float64 `json:"latency"`
		}
		if json.Unmarshal(line, &h) == nil && h.Seconds == b.seconds.Seconds() {
			for k, m := range h.Metrics {
				plain[k] = append(plain[k], m.Value)
			}
			for k, v := range h.Latency {
				plain[k] = append(plain[k], v)
			}
		}
	}
	if err != nil || len(plain) == 0 {
		fmt.Fprintf(b.stdout, "tracing overhead: no plain %s run of %v recorded in %s yet\n", b.workload, b.seconds, b.historyFile())
		return
	}
	for _, k := range sortedKeys(traced) {
		p := plain[k]
		if len(p) == 0 {
			continue
		}
		mp := median(p)
		fmt.Fprintf(b.stdout, "tracing overhead %-18s traced %12.4f vs plain median %12.4f over %d runs: %+.1f%%\n",
			k, traced[k], mp, len(p), 100*(traced[k]-mp)/mp)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fingerprint describes the machine and build a result came from.
func fingerprint(studyProcs int) map[string]any {
	daemonProcs := runtime.NumCPU()
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		daemonProcs = v
	}
	commit, dirty := "unknown (not a git checkout)", "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			dirty = strconv.FormatBool(len(bytes.TrimSpace(st)) > 0)
		}
	}
	return map[string]any{
		"cpu":                  cpuModel(),
		"nproc":                runtime.NumCPU(),
		"gomaxprocs_generator": runtime.GOMAXPROCS(0),
		"gomaxprocs_daemon":    daemonProcs,
		"gomaxprocs_study":     studyProcs,
		"go":                   runtime.Version(),
		"git_commit":           commit,
		"git_dirty":            dirty,
	}
}
