package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"quicksand/internal/attacks"
	"quicksand/internal/bgp"
	"quicksand/internal/par"
	"quicksand/internal/stats"
	"quicksand/internal/topology"
)

// topoOpts are the parsed flags of the topo subcommand.
type topoOpts struct {
	n            int
	tier1        int
	transitFrac  float64
	exponent     float64
	maxProviders int
	peerMean     float64
	seed         int64
	workers      int

	dests   int
	hijacks int
	churn   int
	json    bool
}

func topoFlags(fs *flag.FlagSet) *topoOpts {
	o := &topoOpts{}
	fs.IntVar(&o.n, "n", 73000, "number of ASes (73000 = full measured Internet)")
	fs.IntVar(&o.tier1, "tier1", 0, "transit-free core size (0 = scale default)")
	fs.Float64Var(&o.transitFrac, "transit", 0, "fraction of non-core ASes selling transit (0 = default)")
	fs.Float64Var(&o.exponent, "exponent", 0, "power-law exponent of the customer-degree tail (0 = default)")
	fs.IntVar(&o.maxProviders, "max-providers", 0, "multihoming bound per AS (0 = default)")
	fs.Float64Var(&o.peerMean, "peer-mean", -1, "mean transit-transit peerings per AS (-1 = default)")
	fs.Int64Var(&o.seed, "seed", 1, "generator seed (output is deterministic for any -workers)")
	fs.IntVar(&o.workers, "workers", 0, "worker goroutines (<1 = one per CPU)")
	fs.IntVar(&o.dests, "dests", 64, "tracked destination shard size")
	fs.IntVar(&o.hijacks, "hijacks", 200, "hijack resilience trials")
	fs.IntVar(&o.churn, "churn", 50, "single-link flap events for the delta-vs-full benchmark")
	fs.BoolVar(&o.json, "json", false, "emit the BENCH_topo73k.json record instead of the report")
	return o
}

func (o *topoOpts) config() topology.PowerLawConfig {
	cfg := topology.DefaultPowerLawConfig(o.n)
	if o.tier1 > 0 {
		cfg.Tier1 = o.tier1
	}
	if o.transitFrac > 0 {
		cfg.TransitFrac = o.transitFrac
	}
	if o.exponent > 0 {
		cfg.Exponent = o.exponent
	}
	if o.maxProviders > 0 {
		cfg.MaxProviders = o.maxProviders
	}
	if o.peerMean >= 0 {
		cfg.PeerMean = o.peerMean
	}
	cfg.Seed = o.seed
	cfg.Workers = o.workers
	return cfg
}

// topoReport is the machine-readable result of one topo run; bench.sh
// writes it to results/BENCH_topo73k.json and gates on its fields.
type topoReport struct {
	ASes  int   `json:"ases"`
	Links int   `json:"links"`
	Seed  int64 `json:"seed"`

	GenerateMS         float64 `json:"generate_ms"`
	CompileMS          float64 `json:"compile_ms"`
	CompiledBytesPerAS float64 `json:"compiled_bytes_per_as"`

	Dests           int     `json:"dests"`
	FullComputeMS   float64 `json:"full_compute_ms"`
	RoutedFraction  float64 `json:"routed_fraction"`
	RouteSetBytes   int     `json:"routeset_bytes"`
	BytesPerASTable float64 `json:"bytes_per_as_table"`

	HijackTrials      int     `json:"hijack_trials"`
	HijackCaptureMean float64 `json:"hijack_capture_mean"`
	HijackCaptureMax  float64 `json:"hijack_capture_max"`

	ChurnEvents       int     `json:"churn_events"`
	DeltaMeanMS       float64 `json:"delta_mean_ms"`
	FullRecomputeMS   float64 `json:"full_recompute_ms"`
	DeltaSpeedup      float64 `json:"delta_speedup"`
	AffectedMean      float64 `json:"affected_mean"`
	RepairedTotal     int     `json:"repaired_total"`
	RefixpointedTotal int     `json:"refixpointed_total"`

	// The machine the record was measured on.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
}

// cpuModel returns the "model name" of the first CPU in /proc/cpuinfo,
// or "" when it cannot be read.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func topoCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("topo", flag.ContinueOnError)
	o := topoFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if o.dests < 1 {
		return fmt.Errorf("-dests must be >= 1")
	}
	rep, err := runTopo(o)
	if err != nil {
		return err
	}
	if o.json {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	printTopoReport(out, o, rep)
	return nil
}

func runTopo(o *topoOpts) (*topoReport, error) {
	cfg := o.config()
	rep := &topoReport{
		Seed:       o.seed,
		Dests:      o.dests,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
	}

	start := time.Now()
	g, err := topology.GeneratePowerLaw(cfg)
	if err != nil {
		return nil, err
	}
	rep.GenerateMS = ms(time.Since(start))
	rep.ASes, rep.Links = g.Len(), g.Links()

	start = time.Now()
	c := g.Compiled()
	rep.CompileMS = ms(time.Since(start))
	rep.CompiledBytesPerAS = float64(c.MemoryBytes()) / float64(g.Len())

	// Tracked destinations: a deterministic uniform sample over all ASes
	// (mostly stubs, like the guard-hosting ASes of E3), plus the
	// lowest-ASN core AS as a reference point.
	asns := g.ASNs()
	if o.dests > len(asns) {
		return nil, fmt.Errorf("-dests %d exceeds %d ASes", o.dests, len(asns))
	}
	rng := par.TrialRand(o.seed, 1<<20)
	seen := map[bgp.ASN]bool{asns[0]: true}
	dests := []bgp.ASN{asns[0]}
	for len(dests) < o.dests {
		d := asns[rng.Intn(len(asns))]
		if !seen[d] {
			seen[d] = true
			dests = append(dests, d)
		}
	}

	start = time.Now()
	rs, err := topology.NewRouteSet(g, dests, o.workers)
	if err != nil {
		return nil, err
	}
	rep.FullComputeMS = ms(time.Since(start))
	rep.RouteSetBytes = rs.MemoryBytes()
	rep.BytesPerASTable = float64(rep.RouteSetBytes) / float64(g.Len()) / float64(o.dests)
	routed := 0
	tbl := rs.TableAt(0)
	for i := 0; i < tbl.Len(); i++ {
		if tbl.At(i).Type != topology.RouteNone {
			routed++
		}
	}
	rep.RoutedFraction = float64(routed) / float64(g.Len())

	if err := topoHijacks(o, g, dests, rep); err != nil {
		return nil, err
	}
	if err := topoChurn(o, g, rs, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// topoHijacks runs the E3-style resilience study at scale: for each
// trial a random attacker AS hijacks a tracked destination's prefix and
// the captured fraction of the Internet is recorded.
func topoHijacks(o *topoOpts, g *topology.Graph, dests []bgp.ASN, rep *topoReport) error {
	if o.hijacks < 1 {
		return nil
	}
	asns := g.ASNs()
	fracs, err := par.Map(o.workers, o.hijacks, func(i int) (float64, error) {
		rng := par.TrialRand(o.seed, i)
		victim := dests[rng.Intn(len(dests))]
		attacker := asns[rng.Intn(len(asns))]
		for attacker == victim {
			attacker = asns[rng.Intn(len(asns))]
		}
		res, err := attacks.Hijack(g, victim, attacker)
		if err != nil {
			return 0, err
		}
		return res.CaptureFraction, nil
	})
	if err != nil {
		return err
	}
	rep.HijackTrials = o.hijacks
	sum, err := stats.Summarize(fracs)
	if err != nil {
		return err
	}
	rep.HijackCaptureMean, rep.HijackCaptureMax = sum.Mean, sum.Max
	return nil
}

// topoChurn measures delta recompilation against full recomputation:
// each event flaps (removes, then restores) one uniformly random link,
// driving both transitions through RouteSet.Apply, and the mean Apply
// time is compared with the cost of refixpointing every table.
func topoChurn(o *topoOpts, g *topology.Graph, rs *topology.RouteSet, rep *topoReport) error {
	if o.churn < 1 {
		return nil
	}
	type edge struct {
		a, b bgp.ASN
		peer bool
	}
	var edges []edge
	for _, asn := range g.ASNs() {
		a := g.AS(asn)
		for _, c := range a.Customers() {
			edges = append(edges, edge{asn, c, false})
		}
		for _, p := range a.Peers() {
			if p > asn {
				edges = append(edges, edge{asn, p, true})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		return edges[i].a < edges[j].a || (edges[i].a == edges[j].a && edges[i].b < edges[j].b)
	})

	rng := par.TrialRand(o.seed, 2<<20)
	var deltaTotal time.Duration
	applies := 0
	for ev := 0; ev < o.churn; ev++ {
		e := edges[rng.Intn(len(edges))]
		restore := topology.Mutation{Op: topology.MutAddLink, A: e.a, B: e.b}
		if e.peer {
			restore = topology.Mutation{Op: topology.MutAddPeering, A: e.a, B: e.b}
		}
		for _, m := range []topology.Mutation{
			{Op: topology.MutRemoveLink, A: e.a, B: e.b},
			restore,
		} {
			start := time.Now()
			st, err := rs.Apply(m)
			if err != nil {
				return fmt.Errorf("churn event %d (%v %v-%v): %w", ev, m.Op, m.A, m.B, err)
			}
			deltaTotal += time.Since(start)
			applies++
			rep.AffectedMean += float64(st.Affected)
			rep.RepairedTotal += st.Repaired
			rep.RefixpointedTotal += st.Refixpointed
		}
	}
	rep.ChurnEvents = applies
	rep.AffectedMean /= float64(applies)
	rep.DeltaMeanMS = ms(deltaTotal) / float64(applies)

	start := time.Now()
	if err := rs.RecomputeAll(); err != nil {
		return err
	}
	rep.FullRecomputeMS = ms(time.Since(start))
	if rep.DeltaMeanMS > 0 {
		rep.DeltaSpeedup = rep.FullRecomputeMS / rep.DeltaMeanMS
	}
	return nil
}

func printTopoReport(out io.Writer, o *topoOpts, r *topoReport) {
	fmt.Fprintln(out, "== topo: Internet-scale route computation ==")
	fmt.Fprintf(out, "topology          %d ASes, %d links (seed %d)\n", r.ASes, r.Links, r.Seed)
	fmt.Fprintf(out, "generate          %.0f ms\n", r.GenerateMS)
	fmt.Fprintf(out, "compile           %.0f ms (%.1f bytes/AS)\n", r.CompileMS, r.CompiledBytesPerAS)
	fmt.Fprintf(out, "route tables      %d destinations in %.0f ms (%.1f bytes/AS/table, %.1f MB total)\n",
		r.Dests, r.FullComputeMS, r.BytesPerASTable, float64(r.RouteSetBytes)/(1<<20))
	fmt.Fprintf(out, "reachability      %.4f of ASes routed\n", r.RoutedFraction)
	if r.HijackTrials > 0 {
		fmt.Fprintf(out, "hijack trials     %d: capture mean=%.3f max=%.3f\n",
			r.HijackTrials, r.HijackCaptureMean, r.HijackCaptureMax)
	}
	if r.ChurnEvents > 0 {
		fmt.Fprintf(out, "churn             %d link events: delta %.2f ms/event vs full %.0f ms (%.1fx)\n",
			r.ChurnEvents, r.DeltaMeanMS, r.FullRecomputeMS, r.DeltaSpeedup)
		fmt.Fprintf(out, "delta breakdown   %.1f tables affected/event; %d repaired, %d refixpointed\n",
			r.AffectedMean, r.RepairedTotal, r.RefixpointedTotal)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
