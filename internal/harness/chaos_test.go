package harness

import (
	"bytes"
	"reflect"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/svm"
)

// TestChaosNoneIsDefault: the "none" scenario is the cost model's own
// network, so `svm fi -chaos none` (the default) runs exactly what a cell
// without a Chaos block runs.
func TestChaosNoneIsDefault(t *testing.T) {
	sc := ChaosScenarios()[0]
	if def := model.Default().Chaos; sc.Name != "none" || !reflect.DeepEqual(sc.Chaos, def) {
		t.Fatalf("ChaosScenarios()[0] = %q %+v, want none %+v", sc.Name, sc.Chaos, def)
	}
}

// TestChaosCostsOnlyTime runs the whole application suite across every
// chaos scenario under both protocols, with probe detection: chaos may
// only ever cost time, never correctness. Every cell runs under the
// online invariant auditor, must finish and pass its own result check,
// and under the extended protocol must also pass the replica audit. A
// failure logs each node's last flight-recorder events. Under -race only
// storm, every chaos mechanism at once, runs.
func TestChaosCostsOnlyTime(t *testing.T) {
	suite := append(append([]string{}, AppNames...), "ocean", "kvstore", "kvserve")
	for _, sc := range ChaosScenarios() {
		if raceEnabled && sc.Name != "storm" {
			continue
		}
		for _, app := range suite {
			for _, mode := range []svm.Mode{svm.ModeBase, svm.ModeFT} {
				t.Run(sc.Name+"/"+app+"/"+mode.String(), func(t *testing.T) {
					cl, w, err := NewCluster(Config{App: app, Size: SizeSmall, Mode: mode, Nodes: 4,
						ThreadsPerNode: 1, Detection: model.DetectProbe, Chaos: &sc.Chaos})
					if err != nil {
						t.Fatal(err)
					}
					rec := cl.EnableFlightRecorder(8)
					cl.EnableAuditor()
					err = cl.Run()
					if err == nil {
						err = cl.Verify(w.Err)
					}
					if err != nil {
						var dump bytes.Buffer
						rec.Dump(&dump, 8)
						t.Fatalf("%v\n%s", err, dump.String())
					}
				})
			}
		}
	}
}
