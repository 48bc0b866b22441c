package fingerprintcheck_test

import (
	"testing"

	"surfbless/internal/analysis/analysistest"
	"surfbless/internal/analysis/fingerprintcheck"
)

func TestFingerprintCheck(t *testing.T) {
	analysistest.Run(t, "testdata", fingerprintcheck.Analyzer,
		"./internal/sim", "./internal/config", "./internal/system", "./internal/simcache")
}
