//go:build amd64

package coding

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestDecodeBCJRBatchScalarLogMAP runs log-MAP groups with the vector
// kernels switched off, as on hardware without AVX2: every lane takes the
// scalar walk and nothing is padded, and results must still match the
// single-frame decoder bit for bit.
func TestDecodeBCJRBatchScalarLogMAP(t *testing.T) {
	fast, wide := hasFastJacobian, hasAVX512Jacobian
	hasFastJacobian, hasAVX512Jacobian = false, false
	defer func() { hasFastJacobian, hasAVX512Jacobian = fast, wide }()
	rng := rand.New(rand.NewSource(13))
	var bw BatchWorkspace
	for _, W := range []int{1, 3, 5, 9} {
		jobs := make([]BatchJob, W)
		for i := range jobs {
			jobs[i] = makeBatchJob(rng, 9, Rate34, 0.7)
		}
		checkBatchMatchesSingle(t, &bw, jobs, LogMAP, fmt.Sprintf("scalar width=%d", W))
	}
}
