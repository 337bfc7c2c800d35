package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"quicksand"
	"quicksand/internal/bgp"
	"quicksand/internal/par"
	"quicksand/internal/resilience"
	"quicksand/internal/topology"
)

// resilOpts are the parsed flags of the resilience subcommand.
type resilOpts struct {
	scale     string
	seed      int64
	workers   int
	alphas    string
	attackers int
	clients   int
	trials    int

	big          int
	bigGuards    int
	bigAttackers int

	json bool
}

func resilFlags(fs *flag.FlagSet) *resilOpts {
	o := &resilOpts{}
	fs.StringVar(&o.scale, "scale", "paper", "world scale for the E10 study: small or paper")
	fs.Int64Var(&o.seed, "seed", 1, "root seed (output is deterministic for any -workers)")
	fs.IntVar(&o.workers, "workers", 0, "worker goroutines (<1 = one per CPU)")
	fs.StringVar(&o.alphas, "a", "0.5,1", "comma-separated resilience weights a for W(i) = a*R(i) + (1-a)*B(i)")
	fs.IntVar(&o.attackers, "attackers", 0, "per-guard attacker sampling budget for the study matrix (0 = exact)")
	fs.IntVar(&o.clients, "clients", 120, "sampled client ASes per arm")
	fs.IntVar(&o.trials, "trials", 60, "explicit E3-style hijack trials per arm")
	fs.IntVar(&o.big, "big", 73000, "AS count of the sampled-estimator phase (0 = skip)")
	fs.IntVar(&o.bigGuards, "big-guards", 12, "guard destinations in the sampled-estimator phase")
	fs.IntVar(&o.bigAttackers, "big-attackers", 96, "per-guard attacker sample in the sampled-estimator phase")
	fs.BoolVar(&o.json, "json", false, "emit the BENCH_resilience.json record instead of the report")
	return o
}

func (o *resilOpts) alphaList() ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(o.alphas, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		a, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("-a %q: %w", o.alphas, err)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-a %q: no weights", o.alphas)
	}
	return out, nil
}

// resilArm is one strategy row of the machine-readable record.
type resilArm struct {
	Name                 string  `json:"name"`
	Alpha                float64 `json:"alpha"`
	MeanCapture          float64 `json:"mean_capture"`
	EmpiricalCapture     float64 `json:"empirical_capture"`
	AnonymitySetFraction float64 `json:"anonymity_set_fraction"`
}

// resilReport is the machine-readable result of one resilience run;
// bench.sh writes it to results/BENCH_resilience.json and gates on its
// fields.
type resilReport struct {
	Scale string `json:"scale"`
	Seed  int64  `json:"seed"`

	ASes         int     `json:"ases"`
	GuardASes    int     `json:"guard_ases"`
	MatrixPairs  int     `json:"matrix_pairs"`
	MatrixTables int     `json:"matrix_tables"`
	MatrixMS     float64 `json:"matrix_ms"`
	TablesPerSec float64 `json:"tables_per_sec"`
	PairsPerSec  float64 `json:"pairs_per_sec"`
	ErrorBound   float64 `json:"error_bound"`

	Arms []resilArm `json:"arms"`
	// CaptureMargin is min over the a-sweep of (vanilla mean capture −
	// resilience-weighted mean capture); > 0 means resilience weighting
	// strictly lowered capture probability at every setting.
	CaptureMargin float64 `json:"capture_margin"`

	// Sampled-estimator phase at Internet scale: two independent
	// attacker samples per guard must agree within their combined 95%
	// bounds on (almost) every (client, guard) pair.
	BigASes         int     `json:"big_ases,omitempty"`
	BigGuards       int     `json:"big_guards,omitempty"`
	BigAttackers    int     `json:"big_attackers,omitempty"`
	BigBound        float64 `json:"big_bound,omitempty"`
	BigMS           float64 `json:"big_ms,omitempty"`
	BigWithinBound  float64 `json:"big_within_bound,omitempty"`
	BigMaxDeviation float64 `json:"big_max_deviation,omitempty"`
	BigMeanAbsDelta float64 `json:"big_mean_abs_delta,omitempty"`
}

func resilCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("resilience", flag.ContinueOnError)
	o := resilFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if o.scale != "small" && o.scale != "paper" {
		return fmt.Errorf("unknown scale %q", o.scale)
	}
	alphas, err := o.alphaList()
	if err != nil {
		return err
	}
	rep, err := runResil(o, alphas)
	if err != nil {
		return err
	}
	if o.json {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	printResilReport(out, rep)
	return nil
}

func runResil(o *resilOpts, alphas []float64) (*resilReport, error) {
	cfg := quicksand.SmallWorldConfig()
	if o.scale == "paper" {
		cfg = quicksand.DefaultWorldConfig()
	}
	cfg.Seed = o.seed
	cfg.Topology.Seed = o.seed
	cfg.Consensus.Seed = o.seed
	fmt.Fprintf(os.Stderr, "# building %s world (seed %d)...\n", o.scale, o.seed)
	w, err := quicksand.BuildWorld(cfg)
	if err != nil {
		return nil, err
	}
	rep := &resilReport{Scale: o.scale, Seed: o.seed, ASes: w.Topology.Len()}

	// All-pairs matrix first, timed; the study then hits the engine
	// cache and adds no second computation.
	guards := w.GuardASes()
	rep.GuardASes = len(guards)
	mcfg := resilience.Config{Guards: guards, Attackers: o.attackers, Seed: o.seed, Workers: o.workers}
	fmt.Fprintf(os.Stderr, "# computing resilience matrix (%d guard ASes x %d ASes)...\n",
		len(guards), w.Topology.Len())
	start := time.Now()
	mx, err := w.ResilienceEngine().Matrix(mcfg)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	rep.MatrixPairs, rep.MatrixTables = mx.Pairs(), mx.Tables()
	rep.MatrixMS = ms(elapsed)
	rep.TablesPerSec = float64(mx.Tables()) / elapsed.Seconds()
	rep.PairsPerSec = float64(mx.Pairs()) / elapsed.Seconds()
	rep.ErrorBound = mx.ErrorBound95()

	scfg := quicksand.DefaultResilienceStudyConfig()
	scfg.Seed = o.seed
	scfg.Alphas = alphas
	scfg.AttackerBudget = o.attackers
	scfg.Clients = o.clients
	scfg.HijackTrials = o.trials
	scfg.Workers = o.workers
	fmt.Fprintf(os.Stderr, "# running E10 head-to-head (%d clients, %d trials per arm)...\n",
		scfg.Clients, scfg.HijackTrials)
	res, err := w.RunResilienceStudy(scfg)
	if err != nil {
		return nil, err
	}
	toArm := func(a quicksand.ResilienceArm) resilArm {
		return resilArm{Name: a.Name, Alpha: a.Alpha, MeanCapture: a.MeanCapture,
			EmpiricalCapture: a.EmpiricalCapture, AnonymitySetFraction: a.AnonymitySetFraction}
	}
	rep.Arms = append(rep.Arms, toArm(res.Vanilla), toArm(res.ShortPath))
	rep.CaptureMargin = 1
	for _, a := range res.Resilience {
		rep.Arms = append(rep.Arms, toArm(a))
		if m := res.Vanilla.MeanCapture - a.MeanCapture; m < rep.CaptureMargin {
			rep.CaptureMargin = m
		}
	}

	if o.big > 0 {
		if err := resilBigPhase(o, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// resilBigPhase measures the sampled estimator at Internet scale: on a
// generated power-law topology, two independent per-guard attacker
// samples estimate the same matrix, and the fraction of (client, guard)
// pairs whose estimates agree within the combined 95% bounds is
// reported (the bound must hold for ~95% of pairs if it is honest).
func resilBigPhase(o *resilOpts, rep *resilReport) error {
	cfg := topology.DefaultPowerLawConfig(o.big)
	cfg.Seed = o.seed
	cfg.Workers = o.workers
	fmt.Fprintf(os.Stderr, "# generating %d-AS power-law topology...\n", o.big)
	g, err := topology.GeneratePowerLaw(cfg)
	if err != nil {
		return err
	}
	if o.bigAttackers < 1 || o.bigAttackers >= g.Len()-1 {
		return fmt.Errorf("-big-attackers %d must be in [1, %d) for a sampled estimate", o.bigAttackers, g.Len()-1)
	}

	// Guard destinations: a deterministic uniform sample, like the topo
	// subcommand's tracked shard.
	asns := g.ASNs()
	if o.bigGuards < 1 || o.bigGuards > len(asns) {
		return fmt.Errorf("-big-guards %d out of range", o.bigGuards)
	}
	rng := par.TrialRand(o.seed, 3<<20)
	seen := make(map[bgp.ASN]bool, o.bigGuards)
	var guards []bgp.ASN
	for len(guards) < o.bigGuards {
		d := asns[rng.Intn(len(asns))]
		if !seen[d] {
			seen[d] = true
			guards = append(guards, d)
		}
	}

	fmt.Fprintf(os.Stderr, "# sampling %d attackers/guard twice over %d guards...\n", o.bigAttackers, len(guards))
	start := time.Now()
	mkcfg := resilience.Config{Guards: guards, Attackers: o.bigAttackers, Workers: o.workers}
	mkcfg.Seed = par.TrialSeed(o.seed, 4<<20)
	a, err := resilience.Compute(g, mkcfg, nil)
	if err != nil {
		return err
	}
	mkcfg.Seed = par.TrialSeed(o.seed, 5<<20)
	b, err := resilience.Compute(g, mkcfg, nil)
	if err != nil {
		return err
	}
	rep.BigMS = ms(time.Since(start))
	rep.BigASes, rep.BigGuards, rep.BigAttackers = g.Len(), len(guards), o.bigAttackers
	rep.BigBound = a.ErrorBound95()

	combined := a.ErrorBound95() + b.ErrorBound95()
	within, total := 0, 0
	var maxDev, sumDev float64
	for gi := range guards {
		for id := int32(0); id < int32(g.Len()); id++ {
			d := a.RAt(id, gi) - b.RAt(id, gi)
			if d < 0 {
				d = -d
			}
			if d <= combined {
				within++
			}
			if d > maxDev {
				maxDev = d
			}
			sumDev += d
			total++
		}
	}
	rep.BigWithinBound = float64(within) / float64(total)
	rep.BigMaxDeviation = maxDev
	rep.BigMeanAbsDelta = sumDev / float64(total)
	return nil
}

func printResilReport(out io.Writer, r *resilReport) {
	fmt.Fprintln(out, "== E10 (extension): Counter-RAPTOR resilience-weighted guard selection ==")
	fmt.Fprintf(out, "world             %s scale: %d ASes, %d guard ASes (seed %d)\n",
		r.Scale, r.ASes, r.GuardASes, r.Seed)
	mode := "exact (every attacker enumerated)"
	if r.ErrorBound > 0 {
		mode = fmt.Sprintf("sampled (95%% bound ±%.3f)", r.ErrorBound)
	}
	fmt.Fprintf(out, "matrix            %d pairs from %d hijack tables in %.0f ms (%s)\n",
		r.MatrixPairs, r.MatrixTables, r.MatrixMS, mode)
	fmt.Fprintf(out, "throughput        %.0f tables/s, %.0f pairs/s\n", r.TablesPerSec, r.PairsPerSec)
	fmt.Fprintf(out, "%-22s %12s %12s %12s\n", "strategy", "capture", "empirical", "anon-set")
	for _, a := range r.Arms {
		fmt.Fprintf(out, "%-22s %12.4f %12.4f %12.4f\n",
			a.Name, a.MeanCapture, a.EmpiricalCapture, a.AnonymitySetFraction)
	}
	fmt.Fprintf(out, "capture margin    %.4f (vanilla minus worst resilience arm; must be > 0)\n", r.CaptureMargin)
	if r.BigASes > 0 {
		fmt.Fprintf(out, "73K estimator     %d ASes, %d guards, %d attackers/guard twice in %.0f ms\n",
			r.BigASes, r.BigGuards, r.BigAttackers, r.BigMS)
		fmt.Fprintf(out, "agreement         %.4f of pairs within the combined ±%.3f bound (max dev %.3f)\n",
			r.BigWithinBound, 2*r.BigBound, r.BigMaxDeviation)
	}
	fmt.Fprintln(out, "(Counter-RAPTOR: W(i) = a*R(i) + (1-a)*B(i); higher a trades bandwidth")
	fmt.Fprintln(out, " balance for hijack resilience, lowering the capture probability)")
}
