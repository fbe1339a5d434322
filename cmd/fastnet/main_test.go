package main

import (
	"errors"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain doubles as the child process for the re-exec tests below: when
// FASTNET_ARGV is set, the binary behaves as `fastnet <argv>` — including
// main's real exit-status handling — instead of running the test suite.
func TestMain(m *testing.M) {
	if argv := os.Getenv("FASTNET_ARGV"); argv != "" {
		os.Args = append([]string{"fastnet"}, strings.Split(argv, "\x1f")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// reexec runs this test binary as the fastnet CLI and returns its combined
// output and exit code.
func reexec(t *testing.T, args ...string) (string, int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "FASTNET_ARGV="+strings.Join(args, "\x1f"))
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("re-exec failed to run: %v\n%s", err, out)
	}
	return string(out), ee.ExitCode()
}

// TestSoakViolationExitCodeAndRepro: an invariant violation must turn into a
// non-zero process exit status and a one-line repro command that reproduces
// the identical violation when replayed.
func TestSoakViolationExitCodeAndRepro(t *testing.T) {
	for name, args := range map[string][]string{
		// -max-rounds 1 on a churned ring cannot converge: deterministic I1
		// violation on the discrete-event runtime.
		"ring": {"soak", "-topo", "ring", "-n", "16", "-seed", "1",
			"-epochs", "2", "-flaps", "3", "-partition-every", "0", "-crashes", "0",
			"-calls", "0", "-leader-crash", "0", "-no-election", "-max-rounds", "1"},
		// The edge probability is part of the topology: a repro line without
		// it replays another graph, and so another violation.
		"gnp-p": {"soak", "-topo", "gnp", "-n", "16", "-gnp-p", "0.6", "-seed", "1",
			"-epochs", "2", "-max-rounds", "1"},
	} {
		t.Run(name, func(t *testing.T) {
			out, code := reexec(t, args...)
			if code != 1 {
				t.Fatalf("exit code = %d, want 1\n%s", code, out)
			}
			if !strings.Contains(out, "invariant I1 violated") {
				t.Fatalf("output misses the violation line:\n%s", out)
			}
			var repro string
			for _, line := range strings.Split(out, "\n") {
				if rest, ok := strings.CutPrefix(line, "repro: fastnet "); ok {
					repro = rest
					break
				}
			}
			if repro == "" {
				t.Fatalf("output misses the one-line repro:\n%s", out)
			}
			// Replaying the repro command reproduces the violation byte for byte.
			out2, code2 := reexec(t, strings.Fields(repro)...)
			if code2 != 1 {
				t.Fatalf("repro exit code = %d, want 1\n%s", code2, out2)
			}
			want := ""
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "violation:") {
					want = line
					break
				}
			}
			if want == "" || !strings.Contains(out2, want) {
				t.Fatalf("repro run did not reproduce %q:\n%s", want, out2)
			}
		})
	}
}

// TestSoakHelpGolden pins `fastnet soak -h` byte for byte. Most of its flags
// are not declared in this package — the soak's knobs register themselves
// (faults.Config.Flags) — so a name, a default or a usage line that moved
// shows here.
func TestSoakHelpGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/soak_help.golden")
	if err != nil {
		t.Fatal(err)
	}
	out, code := reexec(t, "soak", "-h")
	if code != 1 || out != string(want) {
		t.Fatalf("soak -h exited %d and printed\n%s\nwant exit 1 and\n%s", code, out, want)
	}
}

// TestSoakLossyCLIPasses: the lossy-link flags drive a clean run to exit 0
// with the reliable ledger reported on the result line.
func TestSoakLossyCLIPasses(t *testing.T) {
	out, code := reexec(t, "soak", "-topo", "ring", "-n", "12", "-seed", "3",
		"-epochs", "2", "-flaps", "1", "-partition-every", "0", "-crashes", "0",
		"-loss", "0.2", "-dup", "0.1", "-corrupt", "0.05", "-jitter", "0.1", "-reliable", "4")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "reliable(sent=8") || !strings.Contains(out, "faults(drop=") {
		t.Fatalf("result line misses lossy blocks:\n%s", out)
	}
}

// TestSoakGrayCLIRoundTrip: the gray-failure flags must survive the
// violation → repro → replay loop — a failing soak armed with -slow/-stall
// renders them into the one-line repro, and replaying that line reproduces
// the identical violation.
func TestSoakGrayCLIRoundTrip(t *testing.T) {
	// -max-rounds 1 on a churned ring cannot converge (the same
	// deterministic I1 violation the plain round-trip test uses), with the
	// gray dimensions armed on top.
	out, code := reexec(t, "soak", "-topo", "ring", "-n", "16", "-seed", "1",
		"-epochs", "2", "-flaps", "3", "-partition-every", "0", "-crashes", "0",
		"-calls", "0", "-leader-crash", "0", "-no-election", "-max-rounds", "1",
		"-reliable", "2", "-slow", "0.2", "-slow-factor", "3", "-slow-max", "6",
		"-stall", "1", "-stall-ticks", "5")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out)
	}
	var repro string
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "repro: fastnet "); ok {
			repro = rest
			break
		}
	}
	if repro == "" {
		t.Fatalf("output misses the one-line repro:\n%s", out)
	}
	for _, want := range []string{"-slow 0.2", "-slow-factor 3", "-slow-max 6", "-stall 1", "-stall-ticks 5"} {
		if !strings.Contains(repro, want) {
			t.Fatalf("repro %q dropped the gray flag %q", repro, want)
		}
	}
	out2, code2 := reexec(t, strings.Fields(repro)...)
	if code2 != 1 {
		t.Fatalf("repro exit code = %d, want 1\n%s", code2, out2)
	}
	want := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "violation:") {
			want = line
			break
		}
	}
	if want == "" || !strings.Contains(out2, want) {
		t.Fatalf("repro run did not reproduce %q:\n%s", want, out2)
	}
}

// TestSoakGrayVerboseCLI: a clean gray soak exits 0, reports the gray block
// on the result line, and -v prints the worst detector snapshot next to the
// scheduler stats.
func TestSoakGrayVerboseCLI(t *testing.T) {
	out, code := reexec(t, "soak", "-topo", "gnp", "-n", "16", "-seed", "2",
		"-epochs", "2", "-flaps", "1", "-partition-every", "0", "-crashes", "1",
		"-calls", "1", "-reliable", "4", "-slow", "0.2", "-stall", "1", "-v")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "gray(elections=") {
		t.Fatalf("result line misses the gray block:\n%s", out)
	}
	if !strings.Contains(out, "detector: leader=") {
		t.Fatalf("-v output misses the detector snapshot:\n%s", out)
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunHelp(t *testing.T) {
	if err := run([]string{"help"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // what the error must name
	}{
		{nil, "missing command"},
		{[]string{"bogus"}, "bogus"},
		{[]string{"exp"}, "experiment ID"},
		{[]string{"exp", "E99"}, "E99"},
		{[]string{"exp", "-parallel", "-5", "E10"}, "-parallel -5"},
		{[]string{"exp", "-shards", "-3", "E10"}, "-shards -3"},
		{[]string{"sim", "-topo", "nosuch"}, "nosuch"},
		{[]string{"sim", "-proto", "nosuch"}, "nosuch"},
		{[]string{"sim", "-topo", "ring", "-n", "8", "-root", "100"}, "-root 100"},
		{[]string{"sim", "-topo", "ring", "-n", "8", "-root", "-1"}, "-root -1"},
		{[]string{"sim", "-topo", "ring", "-n", "8", "-proto", "pif", "-root", "8"}, "-root 8"},
		{[]string{"sim", "-c", "-3"}, "-c -3"},
		{[]string{"sim", "-p", "-1"}, "-p -1"},
		{[]string{"sim", "-shards", "-3"}, "-shards -3"},
		{[]string{"sim", "-n", "-5"}, "-n -5"},
		{[]string{"sim", "-n", "0"}, "-n 0"},
		{[]string{"sim", "-gnp-p", "2"}, "-gnp-p 2"},
		{[]string{"sim", "-gnp-p", "NaN"}, "-gnp-p NaN"},
		{[]string{"sim", "-gnp-p", "-0.5"}, "-gnp-p -0.5"},
		// Baselines off the graphs they are defined on: at the parent the
		// first ran 50M events to the budget and the second "elected" node 7.
		{[]string{"sim", "-proto", "election-hs", "-topo", "gnp", "-n", "16"}, "hirschberg-sinclair needs a ring"},
		{[]string{"sim", "-proto", "election-naive", "-topo", "path", "-n", "8"}, "naive-allpairs needs a complete graph"},
		{[]string{"soak", "-n", "-5"}, "-n -5"},
		{[]string{"soak", "-topo", "nosuch"}, "nosuch"},
		{[]string{"soak", "-mode", "nosuch"}, "nosuch"},
		{[]string{"soak", "-runtime", "nosuch", "-n", "8", "-epochs", "1"}, "nosuch"},
		{[]string{"soak", "-epochs", "0"}, "Epochs"},
		{[]string{"soak", "-shards", "-3", "-n", "8", "-epochs", "1"}, "-shards -3"},
		// Knobs out of range, each accepted without a word at the parent
		// (-loss 2 ran to a bogus I1 violation with a repro line).
		{[]string{"soak", "-loss", "2"}, "-loss 2: must be a probability in [0, 1]"},
		{[]string{"soak", "-loss", "NaN"}, "-loss NaN"},
		{[]string{"soak", "-leader-crash", "1.5"}, "-leader-crash 1.5"},
		{[]string{"soak", "-flaps", "-1"}, "-flaps -1: must be finite and >= 0"},
		{[]string{"soak", "-reliable", "-1"}, "-reliable -1"},
		{[]string{"soak", "-calls", "-5"}, "-calls -5"},
		{[]string{"soak", "-stall", "-1"}, "-stall -1"},
		{[]string{"soak", "-rate", "-1"}, "-rate -1"},
		{[]string{"soak", "-rate", "+Inf"}, "-rate +Inf"},
		{[]string{"soak", "-jittermax", "-4"}, "-jittermax -4"},
		{[]string{"soak", "-timeout", "-1s"}, "-timeout -1s"},
		{[]string{"soak", "-seeds", "0"}, "-seeds 0"},
		{[]string{"soak", "-seeds", "-3"}, "-seeds -3"},
		{[]string{"soak", "-parallel", "-2"}, "-parallel -2"},
	} {
		err := run(tc.args)
		if err == nil {
			t.Fatalf("run(%v) succeeded, want error", tc.args)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) failed with %q, which does not name %q", tc.args, err, tc.want)
		}
	}
}

func TestRunExpSmall(t *testing.T) {
	if err := run([]string{"exp", "E10"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"exp", "-csv", "E10"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSimScenarios(t *testing.T) {
	scenarios := [][]string{
		{"sim", "-topo", "ring", "-n", "16", "-proto", "election"},
		{"sim", "-topo", "ring", "-n", "16", "-proto", "election-hs"},
		{"sim", "-topo", "complete", "-n", "8", "-proto", "election-naive"},
		{"sim", "-topo", "path", "-n", "12", "-proto", "broadcast"},
		{"sim", "-topo", "tree", "-n", "20", "-proto", "flood"},
		{"sim", "-topo", "cbt", "-n", "15", "-proto", "layers"},
		{"sim", "-topo", "star", "-n", "10", "-proto", "dfs"},
		{"sim", "-topo", "grid", "-n", "16", "-proto", "broadcast"},
		{"sim", "-topo", "arpanet", "-proto", "broadcast"},
		{"sim", "-proto", "gsf", "-n", "30", "-c", "1", "-p", "2"},
		{"sim", "-topo", "gnp", "-n", "24", "-proto", "election", "-random-delays", "-c", "3", "-p", "4"},
	}
	for _, args := range scenarios {
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
}

func TestRunSoakScenarios(t *testing.T) {
	scenarios := [][]string{
		{"soak", "-topo", "gnp", "-n", "16", "-seed", "2", "-epochs", "3", "-flaps", "1", "-crashes", "1", "-calls", "1"},
		{"soak", "-topo", "ring", "-n", "12", "-seed", "1", "-epochs", "2", "-flaps", "1", "-partition-every", "0", "-crashes", "0", "-calls", "1", "-mode", "flooding", "-no-election"},
		{"soak", "-runtime", "gosim", "-topo", "gnp", "-n", "12", "-seed", "3", "-epochs", "2", "-flaps", "1", "-partition-every", "0", "-crashes", "1", "-calls", "1", "-v"},
		// One node: nothing to cut off, flap or call, and nothing violated.
		{"soak", "-n", "1", "-epochs", "2"},
	}
	for _, args := range scenarios {
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
}

func TestBuildTopo(t *testing.T) {
	for _, name := range []string{"ring", "path", "star", "grid", "complete", "tree", "cbt", "gnp", "arpanet"} {
		g, err := buildTopo(name, 20, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.N() == 0 {
			t.Fatalf("%s: empty graph", name)
		}
	}
	if _, err := buildTopo("nosuch", 10, 0, 1); err == nil {
		t.Fatal("unknown topology accepted")
	}
	// Sizes a node ID cannot name are refused before anything is built: -n
	// past the int32 bound, and a grid whose side, rounded up, squares past it.
	for _, c := range []struct {
		name string
		n    int
	}{{"ring", math.MaxInt32 + 1}, {"grid", 3_000_000_000}, {"grid", 46340*46340 + 1}, {"arpanet", 1 << 40}} {
		if _, err := buildTopo(c.name, c.n, 0, 1); err == nil || !strings.Contains(err.Error(), "2147483647") {
			t.Errorf("%s -n %d: %v, want a refusal naming the bound 2147483647", c.name, c.n, err)
		}
	}
}

func TestRunSimPIF(t *testing.T) {
	for _, args := range [][]string{
		{"sim", "-topo", "tree", "-n", "40", "-proto", "pif"},
		{"sim", "-topo", "tree", "-n", "40", "-proto", "pif-direct"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
	// The network flags reach the protocols that build their own networks:
	// drawing every delay from [1,C] and [1,P] instead of paying C and P
	// moves the finish time.
	for _, proto := range []string{"pif", "pif-direct", "gsf"} {
		args := []string{"sim", "-topo", "tree", "-n", "40", "-proto", proto, "-c", "3", "-p", "2"}
		exact, code := reexec(t, args...)
		drawn, code2 := reexec(t, append(args, "-random-delays")...)
		if code != 0 || code2 != 0 {
			t.Fatalf("%s: exit codes %d and %d\n%s\n%s", proto, code, code2, exact, drawn)
		}
		if exact == drawn {
			t.Errorf("%s: -random-delays changed nothing:\n%s", proto, exact)
		}
	}
}
