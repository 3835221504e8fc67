// Command bench is the repository's end-to-end benchmark: it builds
// cmd/mdserve, starts it as a child process with default flags, drives it
// over one TCP connection in a closed loop with seeded inputs, checks the
// answers against an in-process Algorithm 3.1 oracle, and prints every
// metric by name with its unit. See README.md.
//
//	bash bench/run.sh -workload scan_heavy -seed 1 -seconds 15 -trace 0
//
// or, from this directory, `go run . -workload all`.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed for every number recorded while a change is
// being written; README.md names the seed held out for the final claim.
const defaultSeed = 1

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	var (
		workloadName = flag.String("workload", "all", "scan_heavy, result_heavy, plan_heavy, append_read, or all")
		seed         = flag.Int64("seed", defaultSeed, "input seed: equal seeds give byte-identical inputs")
		seconds      = flag.Float64("seconds", refSeconds, "sizes the measured phase: the fixed op count is the one that fills this long on the reference box")
		trace        = flag.String("trace", "0", "1: the shorter traced run that reports the per-layer metrics and writes out/trace-<workload>.json")
		selfcheck    = flag.Bool("selfcheck", false, "run two back-to-back sets of every workload and fail if a pair of medians differs by more than its bound in BENCHMARK.json")
		noiseRuns    = flag.Int("noise", 0, "run every workload this many times and print the NOISE.md table")
	)
	flag.Parse()
	traced, err := strconv.ParseBool(*trace)
	if err != nil {
		return usage("bad -trace %q: want 0 or 1", *trace)
	}
	if flag.NArg() > 0 {
		return usage("unexpected argument %q", flag.Arg(0))
	}

	// Children are killed and reaped on every way out: normal return, an
	// error, a panic in the loader, or a signal.
	defer func() {
		if p := recover(); p != nil {
			killAllChildren()
			panic(p)
		}
		killAllChildren()
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAllChildren()
		os.Exit(130)
	}()

	if *seconds <= 0 {
		return usage("bad -seconds %g: want a positive number", *seconds)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, scale: 1, setups: 3, outDir: "out"}
	if cfg.serverBin, err = buildServer(cfg.outDir); err == nil {
		cfg.shareWindow, err = shareWindowDefault(cfg.serverBin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	switch {
	case *selfcheck:
		return selfCheck(cfg)
	case *noiseRuns > 0:
		return noiseTable(cfg, *noiseRuns)
	}

	var todo []spec
	if *workloadName == "all" {
		todo = specs
	} else if sp, ok := findSpec(*workloadName); ok {
		todo = []spec{sp}
	} else {
		return usage("unknown workload %q", *workloadName)
	}
	for _, sp := range todo {
		run := runWorkload
		if traced {
			run = traceWorkload
		}
		res, err := run(cfg, sp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			return 1
		}
		if err := printResult(res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func usage(format string, a ...any) int {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
	flag.Usage()
	return 2
}

// buildServer compiles cmd/mdserve from the enclosing module into the
// output directory. The benchmark runs from its own directory (run.sh
// changes into it), where go.mod's replace directive finds the repo.
func buildServer(outDir string) (string, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return "", errors.New("run from the bench directory (bash bench/run.sh does)")
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "mdserve"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "mdjoin/cmd/mdserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building mdserve: %v\n%s", err, out)
	}
	return bin, nil
}

// shareWindowDefault reads mdserve's default -share-window from its own
// usage text. The child runs with default flags; the in-process replay
// must use the same window, and a copy of the number here would go stale
// silently the day the server's default moves.
func shareWindowDefault(bin string) (time.Duration, error) {
	out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits non-zero by design
	m := regexp.MustCompile(`(?s)-share-window duration\n[^\n]*\(default ([^)]+)\)`).FindSubmatch(out)
	if m == nil {
		return 0, fmt.Errorf("no -share-window default in `%s -h`", bin)
	}
	return time.ParseDuration(string(m[1]))
}

// printResult prints the notes, every metric by name with its unit, and
// last the one-line JSON object the driver reads.
func printResult(r *result) error {
	fmt.Printf("== %s\n", r.workload)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-52s %s %s\n", n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		// Only a NaN or Inf metric cannot be marshalled: a metric computed
		// from no samples. That is a broken run, not a result.
		return fmt.Errorf("unprintable result: %w", err)
	}
	fmt.Println(strings.TrimSpace(string(line)))
	return nil
}
