// Command bench is the repo's whole-path benchmark: it drives the real
// cmd/ftrm binary over HTTP on a virtual slot clock, three times per
// workload, and reports every timing from the per-op minimum across the
// passes; a fourth, in-process pass with spans on gives the per-layer
// numbers. See README.md.
//
// Usage (from the repo root):
//
//	go run -C bench . [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//
// The last line of standard output is the machine-readable result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// timedPasses is how many times the op list is played against a fresh
// ftrm; every timing is the per-op minimum across them.
const timedPasses = 3

// outDir receives everything a run leaves behind: the ftrm binary,
// state directories, ftrm logs and span files. The harness runs from the
// benchmark's own directory (go run -C bench).
const outDir = "out"

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (default: all, one after another)")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Int("seconds", refSeconds, "how long the timed passes of a workload measure in total, approximately; scales the number of slots")
		traced   = flag.Int("trace", 0, "1 adds the traced in-process pass and reports the per-layer metrics instead of the end-to-end ones")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *traced < 0 || *traced > 1 {
		flag.Usage()
		os.Exit(2)
	}
	var todo []spec
	for _, sp := range workloads() {
		if *workload == "" || *workload == sp.name {
			todo = append(todo, sp)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	killChildrenOnSignal()
	bin, err := buildRM(outDir)
	if err != nil {
		fatal(err)
	}
	printHeader(os.Stdout, *seed, *seconds)
	ok := true
	for _, sp := range todo {
		out, err := runWorkload(bin, sp, *seed, *seconds, timedPasses, *traced == 1, os.Stdout)
		if err != nil {
			// No result line: a run whose passes disagree, or that could
			// not finish, has nothing valid to report.
			fatal(fmt.Errorf("%s: %w", sp.name, err))
		}
		ok = ok && out.correct
		// With --trace 1 the result carries the per-layer metrics, with
		// --trace 0 the end-to-end ones.
		res := result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]measured{}}
		reported := out.endToEnd
		if *traced == 1 {
			reported = out.perLayer
		}
		for _, x := range reported {
			res.Metrics[x.name] = measured{Value: x.value, Unit: x.unit}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for _, sp := range workloads() {
		names = append(names, sp.name)
	}
	return names
}

// result is the machine-readable outcome of one workload run.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run found.
type outcome struct {
	correct           bool
	attempted, failed int
	endToEnd          metrics
	perLayer          metrics // empty unless the traced pass ran
}

// runWorkload generates the scenario, plays the timed passes (and the
// traced one), guards determinism, checks correctness and prints the
// report. An error means there is nothing valid to report.
func runWorkload(bin string, sp spec, seed int64, seconds, nPasses int, traced bool, w io.Writer) (*outcome, error) {
	sc, err := generate(sp, seed, seconds)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\n== %s: %s\n", sp.name, sp.why)
	fmt.Fprintf(w, "   %d nodes x %d vcores, %d warm-up + %d timed slots, %d + %d + %d workflows x %d jobs\n",
		sp.nodes, sp.nodeVCores, len(sc.warm), len(sc.slots), len(sc.setup), countWFs(sc.warm), countWFs(sc.slots), sp.wfJobs)

	var passes []*passResult
	out := &outcome{correct: true}
	for i := 0; i < nPasses; i++ {
		p, err := runPass(bin, sc, outDir, i)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i+1, err)
		}
		passes = append(passes, p)
		out.attempted += p.attempted
		out.failed += p.failed
		fmt.Fprintf(w, "   pass %d: set-up %.3f s, timed %.3f s, recover %.3f s, ftrm cpu %.2f s, peak rss %.1f MB, ref loop %.3f ms\n",
			i+1, p.setup.Seconds(), p.wall.Seconds(), p.recover.Seconds(), p.cpu.Seconds(), p.rssMB, ms(p.refLoop))
		if p.failed > 0 {
			// The op stream is broken; later ops ran against a different
			// state. Report the failure, not timings.
			out.correct = false
			fmt.Fprintf(w, "   FAILED: %d of %d operations, first: %v\n", p.failed, p.attempted, p.firstErr)
			return out, nil
		}
	}
	for i, p := range passes[1:] {
		if err := sameRun(fmt.Sprintf("timed pass %d", i+2), passes[0].playResult, p.playResult, passes[0].final, p.final); err != nil {
			return nil, err
		}
	}
	q, problems := check(sc, passes[0].playResult, passes[0].final)
	t := newTiming(passes)
	out.endToEnd = endToEnd(sc, passes, q)

	if traced {
		tr, err := runTraced(sc, outDir)
		if err != nil {
			return nil, err
		}
		if err := sameRun("traced", passes[0].playResult, tr.playResult, passes[0].final, tr.final); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "   traced pass: timed %.3f s, %d spans\n", tr.wall.Seconds(), len(tr.rec.spans))
		var b budget
		out.perLayer, b = perLayer(sc, passes, t, tr)
		b.print(w)
		if f := ratio(b.layers().Seconds(), b.wall.Seconds()); f < 0.90 || f > 1.10 {
			problems = append(problems, fmt.Sprintf("layers sum to %.3f of the traced wall, want 0.90-1.10", f))
		}
		if err := tr.rec.writeJSONL(filepath.Join(outDir, sp.name+".trace.jsonl")); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(w, "   %d jobs tracked, %d/%d ad-hoc admitted, %d/%d deadlines met, %d ops, %d failed\n",
		q.jobs, q.adhocAdmitted, q.adhocAttempted, q.deadlineMet, q.deadlineDue, out.attempted, out.failed)
	report := slices.Concat(out.endToEnd, out.perLayer)
	if !traced {
		// The path timings are measured either way; without the traced
		// pass they are printed here only, not in the result.
		report = slices.Concat(out.endToEnd, pathTimings(sc, passes, t))
	}
	for _, x := range report {
		fmt.Fprintf(w, "   %-32s %14.6g %s\n", x.name, x.value, x.unit)
	}
	for _, p := range problems {
		out.correct = false
		fmt.Fprintf(w, "   INCORRECT: %s\n", p)
	}
	return out, nil
}

func countWFs(slots []slotLoad) (n int) {
	for _, sl := range slots {
		n += len(sl.wfs)
	}
	return n
}

// printHeader records what the numbers below were measured on.
func printHeader(w io.Writer, seed int64, seconds int) {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	abs, _ := filepath.Abs(outDir) // only printed
	fmt.Fprintf(w, "flowtime bench: commit %s, %s, nproc %d, ftrm GOMAXPROCS %d, cpu %q\n",
		commit, runtime.Version(), runtime.NumCPU(), rmGOMAXPROCS(), cpu)
	fmt.Fprintf(w, "state dirs under %s (%s), seed %d, seconds %d, %d timed passes, started %s\n",
		abs, fsType(outDir), seed, seconds, timedPasses, time.Now().UTC().Format(time.RFC3339))
}

// fsType names the filesystem a directory is on, from statfs magic
// numbers; the fsync numbers mean little on tmpfs or overlayfs.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown fs"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs magic %#x", uint32(st.Type))
}
