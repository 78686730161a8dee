package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"ftsvm/internal/apps"
	"ftsvm/internal/harness"
	"ftsvm/internal/model"
)

// TestAppNamesBuild: every name an -app flag accepts is one harness.Build
// knows, so a name that passes flag parsing never fails later as unknown.
func TestAppNamesBuild(t *testing.T) {
	shape := apps.Shape{Nodes: 4, ThreadsPerNode: 1, PageSize: model.Default().PageSize}
	for _, app := range appNames {
		if _, err := harness.Build(app, harness.SizeSmall, shape); err != nil {
			t.Errorf("-app %s parses but does not build: %v", app, err)
		}
	}
}

// runCapture drives one command line in-process, turning a panic into a
// test failure so a hostile case cannot take the whole table down.
func runCapture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("svm %s panicked: %v", strings.Join(args, " "), r)
		}
	}()
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestSubcommandSmoke runs every subcommand once at a small size and
// looks for its summary line. The numbers are TestGolden's business.
func TestSubcommandSmoke(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"run", "-app", "radix", "-size", "small", "-nodes", "4"}, "verification: OK"},
		{[]string{"run", "-app", "counter", "-size", "small", "-nodes", "4", "-kill", "2", "-killat", "1ms"}, "recoveries"},
		{[]string{"run", "-app", "counter", "-size", "small", "-nodes", "4", "-events", "recovery,kill", "-kill", "1", "-killat", "1ms", "-dump", "-audit"},
			"verified OK; 9 events printed"},
		{[]string{"bench", "-figure", "7", "-size", "small", "-nodes", "4"}, "Figure 7: execution time breakdown (ms/thread), 4 nodes x 1 thread(s)/node, size=small"},
		{[]string{"bench", "-ablation", "detection", "-size", "small", "-nodes", "4"}, "probe            32.0"},
		{[]string{"fi", "-app", "counter", "-budget", "6", "-workers", "2"}, "counter/small/n4/t1: 6/6 boundaries pass"},
		{[]string{"fi", "-app", "counter", "-nodes", "6", "-degree", "3", "-pairs", "-budget", "1", "-seconds", "2", "-workers", "2"}, "2/2 pairs pass"},
		{[]string{"fi", "-app", "counter", "-lock", "nic", "-budget", "6", "-workers", "2"}, "counter/small/n4/t1: 6/6 boundaries pass"},
		{[]string{"fi", "-app", "counter", "-chaos", "burst", "-budget", "6"}, "counter/small/n4/t1: 6/6 boundaries pass"},
		{[]string{"serve", "-scenarios", "storm", "-detect", "probe", "-requests", "60"}, "svmserve: 1 cells in"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			code, out, errw := runCapture(t, tc.args...)
			if code != 0 || !strings.Contains(out, tc.want) {
				t.Fatalf("exit %d, want 0 and %q in stdout\nstdout:\n%s\nstderr:\n%s", code, tc.want, out, errw)
			}
		})
	}
}

// TestBoundaryReplayDumpsOnFailure: a failing -boundary replay prints its
// verdict and then each node's last flight-recorder events. A boundary
// that never fires fails the same way whatever the protocol does.
func TestBoundaryReplayDumpsOnFailure(t *testing.T) {
	code, out, errw := runCapture(t, "fi", "-app", "counter", "-boundary", "release.done@n1#999")
	verdict := strings.Index(out, "boundaries never fired: release.done@n1#999")
	if code != 1 || verdict < 0 {
		t.Fatalf("exit %d, want 1 and the unfired boundary in the verdict\nstdout:\n%s\nstderr:\n%s", code, out, errw)
	}
	for n := 0; n < 4; n++ {
		if i := strings.Index(out, fmt.Sprintf("node %d: last 8 of ", n)); i < verdict {
			t.Fatalf("no dump of node %d after the verdict\nstdout:\n%s", n, out)
		}
	}
}

// TestReproduceHint: a failure's reproduce hint names every app the
// sweep ran up to the failing one, because gob numbers types
// process-wide and so the apps swept first shape a later app's
// checkpoint costs; pasted back, the hint fails with the same error. The
// failure is kvserve's lost update under the storm scenario (ROADMAP
// item 1).
func TestReproduceHint(t *testing.T) {
	code, out, errw := runCapture(t, "fi", "-app", "counter,kvserve", "-detect", "probe", "-chaos", "storm", "-budget", "32", "-workers", "2")
	m := regexp.MustCompile(`FAIL kvserve/\S+ at \S+: (.*)\n  reproduce: svm (.*)\n`).FindStringSubmatch(out)
	if code != 1 || m == nil {
		t.Fatalf("exit %d, want 1 and a kvserve failure with its hint\nstdout:\n%s\nstderr:\n%s", code, out, errw)
	}
	if want := "fi -app counter,kvserve -detect probe -chaos storm -boundary '"; !strings.HasPrefix(m[2], want) {
		t.Fatalf("hint %q, want it to start %q", m[2], want)
	}
	verdict, _ := json.Marshal(m[1])
	code, out, errw = runCapture(t, strings.Fields(strings.ReplaceAll(m[2], "'", ""))...)
	if code != 1 || !strings.Contains(out, `"err": `+string(verdict)) {
		t.Fatalf("svm %s: exit %d, want 1 and err %s\nstdout:\n%s\nstderr:\n%s", m[2], code, verdict, out, errw)
	}
}

// TestHostileInput holds every subcommand to one rule for bad input: exit
// 2 and exactly one line on stderr, before anything is built — never a
// panic, a vacuous pass or a silent default. A retired command is held to
// the dispatcher's rule instead.
func TestHostileInput(t *testing.T) {
	cases := [][]string{
		{"run", "-size", "bogus"},
		{"run", "-mode", "bogus"},
		{"run", "-lock", "bogus"},
		{"run", "-events", "bogus"},
		{"run", "-app", "bogus", "-size", "small"},
		{"run", "-nodes", "0"},
		{"run", "-threads", "0"},
		{"run", "-ring", "0"},
		{"run", "-nodes", "four"},
		{"run", "-bogus"},
		{"run", "radix"},
		{"run", "-app", "fft", "-size", "small", "-nodes", "4", "-kill", "9", "-killat", "1ms"},
		{"run", "-size", "small", "-nodes", "4", "-kill", "-2"},
		{"run", "-size", "small", "-mode", "base", "-kill", "1"},
		{"run", "-size", "small", "-nodes", "2", "-kill", "1"},
		{"run", "-size", "small", "-kill", "1", "-killat", "-1ms"},
		{"run", "-app", "fft", "-size", "small", "-nodes", "4", "-events", "all", "-node", "9"},
		{"run", "-app", "fft", "-size", "small", "-nodes", "4", "-events", "all", "-node", "-5"},
		{"run", "-app", "fft", "-size", "small", "-nodes", "4", "-events", "all", "-limit", "-3"},
		{"run", "-app", "counter", "-size", "small", "-nodes", "4", "-memprofile", "/nonexistent/x"},
		{"run", "-app", "counter", "-size", "small", "-nodes", "4", "-cpuprofile", "/nonexistent/x"},
		{"bench", "-figure", "bogus"},
		{"bench", "-ablation", "bogus"},
		{"bench", "-size", "bogus"},
		{"bench", "-figure", "7", "-nodes", "0"},
		{"bench", "-ablation", "recovery", "-size", "small", "-nodes", "2"},
		{"bench", "-figure", "7", "-size", "small", "-nodes", "4", "-memprofile", "/nonexistent/x"},
		{"bench", "-figure", "7", "-size", "small", "-nodes", "4", "-cpuprofile", "/nonexistent/x"},
		{"fi", "-size", "bogus"},
		{"fi", "-tier", "bogus"},
		{"fi", "-lock", "queue"},
		{"fi", "-detect", "bogus"},
		{"fi", "-budget", "-3"},
		{"fi", "-threads", "0"},
		{"fi", "-nodes", "0"},
		{"fi", "-nodes", "2"},
		{"fi", "-workers", "-1"},
		{"fi", "-seconds", "-1"},
		{"fi", "-degree", "1"},
		{"fi", "-shard", "4/4"},
		{"fi", "-shard", "half"},
		{"fi", "-shard", "0/4junk"},
		{"fi", "-app", "bogus"},
		{"fi", "-kinds", "release.bogus"},
		{"fi", "-boundary", "release.done@n9"},
		{"fi", "-app", "counter", "-boundary", "release.done@n9#1"},
		{"fi", "-tier", "large", "-boundary", "release.done@n2#1,release.done@n64#1"},
		{"fi", "-chaos", "bogus"},
		{"serve", "-scenarios", "bogus"},
		{"serve", "-detect", "oracle,bogus"},
		{"serve", "-nodes", "0"},
		{"serve", "-requests", "0"},
		{"serve", "-nodes", "2"},
		{"serve", "-zipf", "NaN"},
		{"serve", "-zipf", "Inf"},
		{"serve", "-zipf", "-1"},
		{"serve", "-rewarm-factor", "NaN"},
		{"serve", "-service", "-1"},
		{"serve", "-kill-at", "-7"},
		{"serve", "-gap", "1"},
		{"serve", "-readpct", "150"},
		{"serve", "-victim", "9"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			code, out, errw := runCapture(t, args...)
			if code != 2 || strings.Count(errw, "\n") != 1 || out != "" {
				t.Fatalf("exit %d, stdout %q, stderr %q: want exit 2, one stderr line and no output", code, out, errw)
			}
		})
	}
	// Lines the retired svm check and svm chaos rejected still exit 2
	// before anything runs: each is an unknown command now, so its flags
	// reach no subcommand and the dispatcher answers with the usage text
	// alone.
	for _, args := range [][]string{
		{"check", "-milestones", "bogus.kind"},
		{"check", "-size", "bogus"},
		{"check", "-tier", "bogus"},
		{"check", "-lock", "queue"},
		{"check", "-detect", "bogus"},
		{"check", "-threads", "0"},
		{"chaos", "-scenarios", "bogus"},
		{"chaos", "-apps", "bogus"},
		{"chaos", "-size", "bogus"},
		{"chaos", "-detect", "bogus"},
		{"chaos", "-nodes", "0"},
		{"chaos", "-threads", "0"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			code, out, errw := runCapture(t, args...)
			if want := fmt.Sprintf("svm: unknown command %q\n", args[0]) + usage; code != 2 || errw != want || out != "" {
				t.Fatalf("exit %d, stdout %q, stderr %q: want exit 2, the unknown-command usage and no output", code, out, errw)
			}
		})
	}
}

// TestProfileWriteFailure: a profile that opened but cannot be written at
// exit fails the command with exit 1 and one stderr line, after the run's
// own output. /dev/full accepts the open and fails every write.
func TestProfileWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	for _, flag := range []string{"-memprofile", "-cpuprofile"} {
		for _, args := range [][]string{
			{"run", "-app", "counter", "-size", "small", "-nodes", "4", flag, "/dev/full"},
			{"bench", "-figure", "7", "-size", "small", "-nodes", "4", flag, "/dev/full"},
		} {
			t.Run(strings.Join(args, " "), func(t *testing.T) {
				code, out, errw := runCapture(t, args...)
				if code != 1 || strings.Count(errw, "\n") != 1 || out == "" {
					t.Fatalf("exit %d, stdout %q, stderr %q: want exit 1, one stderr line and the run's output", code, out, errw)
				}
			})
		}
	}
}

// TestUsage covers the dispatcher: no subcommand and an unknown one (check
// and chaos among them, since fi took both over) exit 2 with the usage
// text; -h prints a subcommand's flags and exits 0.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"check"}, {"chaos"}, {"-h"}} {
		code, out, errw := runCapture(t, args...)
		if code != 2 || out != "" || !strings.Contains(errw, "usage: svm <command>") {
			t.Errorf("svm %v: exit %d, stdout %q, stderr %q: want exit 2 and the usage text", args, code, out, errw)
		}
	}
	for name := range commands {
		code, _, errw := runCapture(t, name, "-h")
		if code != 0 || !strings.Contains(errw, fmt.Sprintf("Usage of %s:", name)) {
			t.Errorf("svm %s -h: exit %d, stderr %q: want exit 0 and the flag list", name, code, errw)
		}
	}
}
