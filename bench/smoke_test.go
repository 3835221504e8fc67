package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

var smokeCfg runConfig

// TestMain builds mdserve once for the smoke runs, into the benchmark's
// own (git-ignored) output directory.
func TestMain(m *testing.M) {
	dir := filepath.Join("out", "test")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	bin, err := filepath.Abs(filepath.Join(dir, "mdserve"))
	if err != nil {
		panic(err)
	}
	if out, err := exec.Command("go", "build", "-o", bin, "mdjoin/cmd/mdserve").CombinedOutput(); err != nil {
		panic("building mdserve: " + err.Error() + "\n" + string(out))
	}
	window, err := shareWindowDefault(bin)
	if err != nil {
		panic(err)
	}
	smokeCfg = runConfig{seed: 1, seconds: 1, scale: 100, setups: 1, outDir: dir, serverBin: bin, shareWindow: window}
	code := m.Run()
	killAllChildren()
	os.Exit(code)
}

// TestSmoke runs every workload for one second at 1/100 size, untraced
// and traced, against a real child server, and asserts that the metrics
// printed are exactly the ones BENCHMARK.json declares, each once, each
// with its declared unit. It never runs the full-size benchmark.
func TestSmoke(t *testing.T) {
	d, err := readDeclared()
	if err != nil {
		t.Fatal(err)
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range d.EndToEnd {
		if _, dup := e2e[m.Name]; dup {
			t.Errorf("end_to_end metric %s declared twice", m.Name)
		}
		e2e[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		if _, dup := layer[m.Name]; dup {
			t.Errorf("per_layer metric %s declared twice", m.Name)
		}
		layer[m.Name] = m.Unit
	}
	if len(d.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(d.Workloads), len(specs))
	}
	for i, w := range d.Workloads {
		if i < len(specs) && w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, specs[i].name)
		}
	}

	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			res, err := runWorkload(smokeCfg, sp)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, e2e)
			res, err = traceWorkload(smokeCfg, sp)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, layer)
			if _, err := os.Stat(filepath.Join(smokeCfg.outDir, "trace-"+sp.name+".json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}

func checkResult(t *testing.T, res *result, declared map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d\n%v", res.Correct, res.Attempted, res.Failed, res.notes)
	}
	var got []string
	for name, m := range res.Metrics {
		got = append(got, name)
		unit, ok := declared[name]
		switch {
		case !ok:
			t.Errorf("metric %s is printed but not declared", name)
		case unit != m.Unit:
			t.Errorf("metric %s has unit %q, declared %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", name, m.Value)
		}
	}
	sort.Strings(got)
	for name := range declared {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("metric %s is declared but not printed (printed: %v)", name, got)
		}
	}
}
