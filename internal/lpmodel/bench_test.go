package lpmodel

// LP solve-time benchmarks across fabric sizes, one pair per method.
// These feed the `make bench` regression gate (substring LPSolve) and
// the before/after table in EXPERIMENTS.md. The m=100 pair is the
// instance the sparse-pipeline speedup claim is measured on; dense at
// that size runs seconds per solve, which is exactly the pain the
// sparse path removes — keep it in the gate so the ratio stays honest.
// The m=150 sparse row tracks the paper-scale solve itself.

import (
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/lp"
	"coflow/internal/trace"
)

// benchInstance pins the trace the LPSolve benches share at each size:
// 2 coflows per port, seed 9, default size mix.
func benchInstance(b *testing.B, ports int) *coflowmodel.Instance {
	b.Helper()
	cfg := trace.DefaultConfig()
	cfg.Ports = ports
	cfg.NumCoflows = 2 * ports
	cfg.Seed = 9
	ins, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return ins
}

func benchLPSolve(b *testing.B, ports int, method lp.Method) {
	ins := benchInstance(b, ports)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveIntervalLPWith(ins, method); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLPSolveDense10(b *testing.B)   { benchLPSolve(b, 10, lp.MethodDense) }
func BenchmarkLPSolveSparse10(b *testing.B)  { benchLPSolve(b, 10, lp.MethodSparse) }
func BenchmarkLPSolveDense50(b *testing.B)   { benchLPSolve(b, 50, lp.MethodDense) }
func BenchmarkLPSolveSparse50(b *testing.B)  { benchLPSolve(b, 50, lp.MethodSparse) }
func BenchmarkLPSolveDense100(b *testing.B)  { benchLPSolve(b, 100, lp.MethodDense) }
func BenchmarkLPSolveSparse100(b *testing.B) { benchLPSolve(b, 100, lp.MethodSparse) }

// BenchmarkLPSolveSparse150 is the paper's own scale (trace.DefaultConfig
// shape: m=150, n=300), the solve H_LP ordering pays per instance. It
// has no dense twin: the tableau takes tens of seconds per solve here.
func BenchmarkLPSolveSparse150(b *testing.B) { benchLPSolve(b, 150, lp.MethodSparse) }
