package harness

import (
	"fmt"

	"ftsvm/internal/explore"
	"ftsvm/internal/svm"
)

// ExploreSpec adapts one experiment cell to the failure-point explorer:
// a Spec whose New builds a fresh, deterministic instance of the cell's
// workload and cluster. The cell's mode is forced to the extended
// protocol — injecting fail-stops into the base protocol is asking a
// non-fault-tolerant system to tolerate faults.
func ExploreSpec(c Config) explore.Spec {
	if c.Mode != svm.ModeFT {
		c.Mode = svm.ModeFT
	}
	name := fmt.Sprintf("%s/%s/n%d/t%d", c.App, c.Size, c.Nodes, c.ThreadsPerNode)
	if c.Tier != TierPaper {
		name = fmt.Sprintf("%s/%s/%s/t%d", c.App, c.Size, c.Tier, c.ThreadsPerNode)
	}
	return explore.Spec{
		Name: name,
		New: func() (explore.Instance, error) {
			cl, w, err := NewCluster(c, svm.Options{})
			if err != nil {
				return explore.Instance{}, err
			}
			return explore.Instance{Cluster: cl, Check: w.Err}, nil
		},
	}
}
