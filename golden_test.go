// Package ftsvm's root test is the repository's one regression gate: every
// recorded virtual metric — the paper grid behind Figures 7-10, the
// 8-256-node scaling tiers, the flat/hashed directory grid through a
// mid-run kill, and the serving chaos matrix — is pinned, one row per
// cell, in testdata/virtual.golden. The simulations are deterministic, so
// any moved field means protocol behaviour changed.
//
//	go test -run TestGolden .           # the gate (-short skips >= 256 nodes)
//	go test -run TestGolden -update .   # rewrite the file; explain every moved row
package ftsvm

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ftsvm/internal/harness"
	"ftsvm/internal/model"
	"ftsvm/internal/par"
	"ftsvm/internal/serve"
	"ftsvm/internal/svm"
)

var update = flag.Bool("update", false, "rewrite testdata/virtual.golden from this run")

const goldenPath = "testdata/virtual.golden"

// goldenHeader opens the file; parseGolden drops it and formatGolden
// writes it back, so the file documents itself.
const goldenHeader = `# ftsvm virtual-metric gate: one row per cell, checked by TestGolden
# (golden_test.go). Regenerate with: go test -run TestGolden -update .
# A change that regenerates this file explains every moved row.
#
# grid/APP/MODE/NxT, scale/APP/MODE/N/TOPO, dir/APP/N/DIR[/kill]:
#   name exec_ns msgs bytes dir_bytes recover_ns
# serve/SCENARIO/DETECT:
#   name completed exec_ns p50_ns p99_ns p999_ns max_ns recover_ns sha256
# recover_ns is the virtual time from the kill to recovery.done (0: no
# kill); sha256 is the first 16 hex digits of the SHA-256 of the cell's
# marshalled serve.CellReport, which covers the whole latency histogram.
#
# A checkpoint's modelled cost is the length of its gob blob, and gob
# numbers types process-wide in order of first use, so these values hold
# for one process history: TestGolden first encodes every checkpoint
# state type once, serially, in a fixed order (harness.AppNames, then
# counter, kvmicro, kvserve) before it measures anything. In a process
# that skips that step the scale/, dir/ and serve/ rows differ, from one
# byte of type-id width: a fresh process that ran only the serve cells
# gave serve/storm/probe exec_ns 183276000 and p99_ns 52428799, against
# 169021937 and 29360127 below. The priming step and this paragraph go
# when the checkpoint codec stops being gob (ROADMAP scale item (b)).
`

var (
	harnessFields = []string{"exec_ns", "msgs", "bytes", "dir_bytes", "recover_ns"}
	serveFields   = []string{"completed", "exec_ns", "p50_ns", "p99_ns", "p999_ns", "max_ns", "recover_ns", "sha256"}
)

// goldenRow is one line of the file: a cell name and its field values in
// the order of fieldsOf(name).
type goldenRow struct {
	name string
	vals []string
}

func fieldsOf(name string) []string {
	if strings.HasPrefix(name, "serve/") {
		return serveFields
	}
	return harnessFields
}

func parseGolden(data []byte) ([]goldenRow, error) {
	var rows []goldenRow
	seen := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if want := len(fieldsOf(f[0])); len(f)-1 != want {
			return nil, fmt.Errorf("%s:%d: %s has %d fields, want %d", goldenPath, i+1, f[0], len(f)-1, want)
		}
		if seen[f[0]] {
			return nil, fmt.Errorf("%s:%d: duplicate row %s", goldenPath, i+1, f[0])
		}
		seen[f[0]] = true
		rows = append(rows, goldenRow{f[0], f[1:]})
	}
	return rows, nil
}

func formatGolden(rows []goldenRow) []byte {
	width := 0
	for _, r := range rows {
		width = max(width, len(r.name))
	}
	var b bytes.Buffer
	b.WriteString(goldenHeader)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s %s\n", width, r.name, strings.Join(r.vals, " "))
	}
	return b.Bytes()
}

// diffRow names every field of got that differs from want as
// "field old → new"; empty when the rows agree.
func diffRow(want, got goldenRow) string {
	var moved []string
	for i, f := range fieldsOf(want.name) {
		if want.vals[i] != got.vals[i] {
			moved = append(moved, fmt.Sprintf("%s %s → %s", f, want.vals[i], got.vals[i]))
		}
	}
	if len(moved) == 0 {
		return ""
	}
	return want.name + ": " + strings.Join(moved, ", ")
}

// diffGolden compares the file's rows with the cells this run produced:
// one message per moved cell, per row without a cell and per cell
// without a row. skipped names the cells a -short run left out.
func diffGolden(want, got []goldenRow, skipped map[string]bool) []string {
	var msgs []string
	byName := map[string]goldenRow{}
	for _, g := range got {
		byName[g.name] = g
	}
	inFile := map[string]bool{}
	for _, w := range want {
		inFile[w.name] = true
		g, ok := byName[w.name]
		switch {
		case skipped[w.name]:
		case !ok:
			msgs = append(msgs, w.name+": row in the golden file but no such cell")
		default:
			if d := diffRow(w, g); d != "" {
				msgs = append(msgs, d)
			}
		}
	}
	for _, g := range got {
		if !inFile[g.name] {
			msgs = append(msgs, g.name+": cell has no row in the golden file")
		}
	}
	return msgs
}

// namedCell is one harness cell under its golden-file name.
type namedCell struct {
	name string
	harness.Config
}

// gridFamily is the paper's evaluation: six apps x base/extended x 8
// nodes x {1, 2} threads at medium size.
func gridFamily() []namedCell {
	var cells []namedCell
	for _, tpn := range []int{1, 2} {
		for _, app := range harness.AppNames {
			for _, mode := range []svm.Mode{svm.ModeBase, svm.ModeFT} {
				cells = append(cells, namedCell{
					fmt.Sprintf("grid/%s/%s/8x%d", app, mode, tpn),
					harness.Config{App: app, Size: harness.SizeMedium, Mode: mode, Nodes: 8, ThreadsPerNode: tpn},
				})
			}
		}
	}
	return cells
}

func tierFor(nodes int) harness.Tier {
	switch nodes {
	case 64:
		return harness.TierLarge
	case 256:
		return harness.TierHuge
	case 512:
		return harness.TierXLarge
	}
	return harness.TierPaper
}

// scaleFamily sweeps the micro workloads across 8/64/256 nodes with the
// scale-out machinery off ("flat": release broadcast, full vector times)
// and on ("tree": the tier preset). Flat cells past 8 nodes still get the
// tier's contention-scaled lock backoff — the paper's 40 µs window
// live-locks a 64-way polling lock under either topology — so the two
// columns differ only in broadcast and vector-time encoding.
func scaleFamily() []namedCell {
	var cells []namedCell
	for _, app := range []string{"counter", "falseshare"} {
		for _, mode := range []svm.Mode{svm.ModeBase, svm.ModeFT} {
			for _, nodes := range []int{8, 64, 256} {
				c := harness.Config{App: app, Size: harness.SizeSmall, Mode: mode, Nodes: nodes, ThreadsPerNode: 1}
				flat := c
				if nodes > 8 {
					backoff := harness.ScaledLockBackoffMaxNs(nodes)
					flat.Overrides = func(cfg *model.Config) { cfg.LockBackoffMaxNs = backoff }
				}
				cells = append(cells, namedCell{fmt.Sprintf("scale/%s/%s/%d/flat", app, mode, nodes), flat})
				if nodes > 8 {
					c.Tier = tierFor(nodes)
					cells = append(cells, namedCell{fmt.Sprintf("scale/%s/%s/%d/tree", app, mode, nodes), c})
				}
			}
		}
	}
	return cells
}

// dirFamily runs the micro workloads on both home directories at every
// tier, healthy and with node N/2 killed at its second release.done.
// Every cell gets the full tier preset for its node count, so the flat
// and hashed columns differ only in the directory.
func dirFamily() []namedCell {
	var cells []namedCell
	for _, app := range []string{"counter", "falseshare"} {
		for _, nodes := range []int{8, 64, 256, 512} {
			for _, kill := range []bool{false, true} {
				for _, dir := range []model.DirectoryMode{model.DirFlat, model.DirHashed} {
					c := harness.Config{
						App: app, Size: harness.SizeMedium, Mode: svm.ModeFT, Nodes: nodes, ThreadsPerNode: 1,
						Tier:      tierFor(nodes),
						Overrides: func(cfg *model.Config) { cfg.Directory = dir },
					}
					name := fmt.Sprintf("dir/%s/%d/%s", app, nodes, dir)
					if kill {
						c.KillKind, c.KillVictim, c.KillSeq = "release.done", nodes/2, 2
						name += "/kill"
					}
					cells = append(cells, namedCell{name, c})
				}
			}
		}
	}
	return cells
}

// serveFamily is `svm serve`'s default matrix: six chaos scenarios x
// oracle/probe, 4 x 1, 400 requests at a 400 µs gap, node 1 killed 40%
// into the stream.
func serveFamily() (names []string, specs []serve.Spec) {
	for _, sc := range harness.ChaosScenarios() {
		for _, det := range []model.DetectionMode{model.DetectOracle, model.DetectProbe} {
			sp := serve.DefaultSpec()
			sp.Scenario, sp.Chaos, sp.Detect = sc.Name, sc.Chaos, det
			sp.KillAtNs = int64(sp.Requests) * sp.MeanGapNs * 2 / 5
			names = append(names, fmt.Sprintf("serve/%s/%s", sc.Name, det))
			specs = append(specs, sp)
		}
	}
	return names, specs
}

func harnessRow(name string, r harness.Result) goldenRow {
	var recoverNs int64
	if r.Phase.KillNs > 0 && r.Phase.RecoverNs > 0 {
		recoverNs = r.Phase.RecoverNs - r.Phase.KillNs
	}
	return intRow(name, r.ExecNs, r.MsgsSent, r.BytesSent, r.DirBytes, recoverNs)
}

func serveRow(name string, r serve.Result) (goldenRow, error) {
	c := r.Report()
	blob, err := json.Marshal(c)
	if err != nil {
		return goldenRow{}, err
	}
	var recoverNs int64
	if c.KillNs > 0 && c.RecoverNs > 0 {
		recoverNs = c.RecoverNs - c.KillNs
	}
	row := intRow(name, c.Completed, c.ExecNs, c.P50Ns, c.P99Ns, c.P999Ns, c.MaxNs, recoverNs)
	row.vals = append(row.vals, fmt.Sprintf("%x", sha256.Sum256(blob))[:16])
	return row, nil
}

func intRow(name string, vals ...int64) goldenRow {
	row := goldenRow{name: name}
	for _, v := range vals {
		row.vals = append(row.vals, strconv.FormatInt(v, 10))
	}
	return row
}

// primeGob pins encoding/gob's process-wide type numbering before any
// gated cell runs (the golden file's header says why): one tiny
// extended-protocol cell per checkpoint state type, serially, in a fixed
// order. It is deleted with gob (ROADMAP scale item (b)).
func primeGob(t *testing.T) {
	for _, app := range append(append([]string(nil), harness.AppNames...), "counter", "kvmicro", "kvserve") {
		r := harness.Run(harness.Config{App: app, Size: harness.SizeSmall, Mode: svm.ModeFT, Nodes: 2, ThreadsPerNode: 1})
		if r.Err != nil {
			t.Fatalf("priming %s: %v", app, r.Err)
		}
	}
}

// runCells runs cells through harness.RunGrid; any error is fatal.
func runCells(t *testing.T, cells []namedCell) []harness.Result {
	cfgs := make([]harness.Config, len(cells))
	for i, c := range cells {
		cfgs[i] = c.Config
	}
	rs := harness.RunGrid(cfgs)
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("%s: %v", cells[i].name, r.Err)
		}
	}
	return rs
}

func TestGolden(t *testing.T) {
	if *update && testing.Short() {
		t.Fatal("-update writes every row: run it without -short")
	}
	primeGob(t)

	// -short leaves out the cells at 256 nodes and up.
	skipped := map[string]bool{}
	cells := slices.DeleteFunc(slices.Concat(gridFamily(), scaleFamily(), dirFamily()), func(c namedCell) bool {
		if testing.Short() && c.Nodes >= 256 {
			skipped[c.name] = true
		}
		return skipped[c.name]
	})
	byName := map[string]goldenRow{}
	var got []goldenRow
	for i, r := range runCells(t, cells) {
		row := harnessRow(cells[i].name, r)
		byName[row.name] = row
		got = append(got, row)
	}

	// The grid again with tracked diffing off, and again on the parallel
	// engine: both must reproduce the plain rows.
	for _, variant := range []struct {
		name string
		set  func(*harness.Config)
	}{
		{"FullTwins", func(c *harness.Config) { c.FullTwins = true }},
		{"Workers: 4", func(c *harness.Config) { c.Workers = 4 }},
	} {
		replay := gridFamily()
		for i := range replay {
			variant.set(&replay[i].Config)
		}
		for i, r := range runCells(t, replay) {
			name := replay[i].name
			if r.Workers == 4 && r.EngineWorkers != 4 {
				t.Errorf("%s with Workers: 4 ran on %d engine worker(s): %s", name, r.EngineWorkers, r.SerialFallback)
			}
			if d := diffRow(byName[name], harnessRow(name, r)); d != "" {
				t.Errorf("replay with %s differs from the plain run: %s", variant.name, d)
			}
		}
	}

	// The hashed directory places every item where the flat map does, so
	// a healthy run cannot tell them apart.
	for _, flat := range got {
		if !strings.HasPrefix(flat.name, "dir/") || !strings.HasSuffix(flat.name, "/flat") {
			continue
		}
		hashed := byName[strings.TrimSuffix(flat.name, "flat")+"hashed"]
		for i, f := range harnessFields[:3] {
			if flat.vals[i] != hashed.vals[i] {
				t.Errorf("%s and %s differ in %s: %s vs %s", flat.name, hashed.name, f, flat.vals[i], hashed.vals[i])
			}
		}
	}

	names, specs := serveFamily()
	for i, r := range par.Map(specs, 0, serve.RunCell, nil) {
		if r.Err != nil {
			t.Fatalf("%s: %v", names[i], r.Err)
		}
		row, err := serveRow(names[i], r)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		got = append(got, row)
	}

	if *update {
		if err := os.WriteFile(goldenPath, formatGolden(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d rows", goldenPath, len(got))
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with: go test -run TestGolden -update .)", err)
	}
	want, err := parseGolden(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range diffGolden(want, got, skipped) {
		t.Error(msg)
	}
}

// The gate's own behaviour, on synthetic rows: no simulation runs here,
// so these cannot disturb the process history TestGolden pins.

func TestGoldenDiffNamesMovedField(t *testing.T) {
	want := []goldenRow{
		intRow("grid/fft/base/8x1", 10, 20, 30, 40, 0),
		intRow("dir/counter/8/flat/kill", 11, 21, 31, 41, 51),
	}
	got := []goldenRow{
		intRow("grid/fft/base/8x1", 10, 20, 30, 40, 0),
		intRow("dir/counter/8/flat/kill", 11, 99, 31, 41, 51),
	}
	msgs := diffGolden(want, got, nil)
	if len(msgs) != 1 {
		t.Fatalf("one moved field gave %d messages: %q", len(msgs), msgs)
	}
	if msgs[0] != "dir/counter/8/flat/kill: msgs 21 → 99" {
		t.Errorf("message %q does not name the cell and exactly the moved field as old → new", msgs[0])
	}
	if msgs := diffGolden(want, want, nil); len(msgs) != 0 {
		t.Errorf("identical rows gave %q", msgs)
	}
}

func TestGoldenSurplusAndMissingRowsFail(t *testing.T) {
	a := intRow("scale/counter/base/8/flat", 1, 2, 3, 4, 0)
	b := intRow("scale/counter/base/256/tree", 5, 6, 7, 8, 0)
	for _, tc := range []struct {
		name      string
		want, got []goldenRow
		skipped   map[string]bool
		msg       string
	}{
		{"stale row", []goldenRow{a, b}, []goldenRow{a}, nil, b.name + ": row in the golden file but no such cell"},
		{"cell without a row", []goldenRow{a}, []goldenRow{a, b}, nil, b.name + ": cell has no row in the golden file"},
		{"row skipped by -short", []goldenRow{a, b}, []goldenRow{a}, map[string]bool{b.name: true}, ""},
	} {
		msgs := diffGolden(tc.want, tc.got, tc.skipped)
		if tc.msg == "" && len(msgs) != 0 || tc.msg != "" && (len(msgs) != 1 || msgs[0] != tc.msg) {
			t.Errorf("%s: got %q, want %q", tc.name, msgs, tc.msg)
		}
	}
}

func TestGoldenFileRoundTrips(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := parseGolden(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 88 {
		t.Errorf("%s has %d rows, want 88", goldenPath, len(rows))
	}
	if !bytes.Equal(formatGolden(rows), data) {
		t.Errorf("%s is not what -update would write from its own rows", goldenPath)
	}
	for _, bad := range []string{"grid/fft/base/8x1 1 2 3\n", "serve/none/oracle 1 2 3 4 5\n", "a 1 2 3 4 5\na 1 2 3 4 5\n"} {
		if _, err := parseGolden([]byte(bad)); err == nil {
			t.Errorf("parseGolden accepted %q", bad)
		}
	}
}
