package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

func TestTopoCmdSmallScale(t *testing.T) {
	var out bytes.Buffer
	err := topoCmd([]string{"-n", "1200", "-dests", "6", "-hijacks", "8", "-churn", "4", "-seed", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"1200 ASes", "reachability      1.0000", "hijack trials     8", "churn             8 link events"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestTopoCmdJSON(t *testing.T) {
	var out bytes.Buffer
	err := topoCmd([]string{"-n", "1200", "-dests", "6", "-hijacks", "4", "-churn", "3", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep topoReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if rep.ASes != 1200 || rep.Dests != 6 {
		t.Errorf("report %+v: wrong scale", rep)
	}
	if rep.RoutedFraction != 1 {
		t.Errorf("routed fraction %v, want 1 (connected graph)", rep.RoutedFraction)
	}
	if rep.BytesPerASTable <= 0 || rep.DeltaSpeedup <= 0 {
		t.Errorf("report %+v: missing benchmark fields", rep)
	}
	if rep.ChurnEvents != 6 {
		t.Errorf("churn events %d, want 6 (3 flaps, 2 applies each)", rep.ChurnEvents)
	}
	if rep.GoVersion != runtime.Version() || rep.GOMAXPROCS != runtime.GOMAXPROCS(0) || rep.NProc != runtime.NumCPU() {
		t.Errorf("machine fingerprint go=%q gomaxprocs=%d nproc=%d, want %q %d %d",
			rep.GoVersion, rep.GOMAXPROCS, rep.NProc, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	for _, key := range []string{`"go_version"`, `"gomaxprocs"`, `"nproc"`, `"cpu"`} {
		if !bytes.Contains(out.Bytes(), []byte(key)) {
			t.Errorf("record lacks %s", key)
		}
	}
}

func TestTopoCmdFlagAndArgErrors(t *testing.T) {
	var out bytes.Buffer
	if err := topoCmd([]string{"-n", "1200", "extra"}, &out); err == nil {
		t.Error("positional argument accepted")
	}
	if err := topoCmd([]string{"-dests", "0"}, &out); err == nil {
		t.Error("-dests 0 accepted")
	}
	if err := topoCmd([]string{"-n", "5"}, &out); err == nil {
		t.Error("n too small for the core accepted")
	}
	if err := topoCmd([]string{"-not-a-flag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestTopoCmdCustomShape(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-n", "900", "-tier1", "6", "-transit", "0.08", "-exponent", "2.4",
		"-max-providers", "2", "-peer-mean", "0.5", "-dests", "3", "-hijacks", "2", "-churn", "2", "-json"}
	if err := topoCmd(args, &out); err != nil {
		t.Fatal(err)
	}
	var rep topoReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ASes != 900 {
		t.Errorf("ASes = %d, want 900", rep.ASes)
	}
}
