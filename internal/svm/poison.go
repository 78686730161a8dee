//go:build poison

package svm

// Building with -tags poison turns on scratch poisoning (see
// poisonScratch) for every cluster, so any test suite can be run with it:
//
//	go test -tags poison -run 'TestTrackedMatchesFullTwinsFailure|TestAuditDifferential' ./internal/svm/
func init() { poisonScratch = true }
