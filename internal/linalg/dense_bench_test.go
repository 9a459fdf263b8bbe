package linalg

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Kernel benchmarks for the dense path. Each reports GFLOP/s as 4n³/3 ÷
// time per op, the nominal flop count of the Householder reduction, so the
// three stages read on one scale:
//
//	go test -run '^$' -bench . ./internal/linalg

var kernelSizes = []int{256, 512, 1024}

func reportGflops(b *testing.B, n int) {
	flops := 4 * math.Pow(float64(n), 3) / 3
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkTred2(b *testing.B) {
	for _, n := range kernelSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := randomSymmetric(rand.New(rand.NewSource(1)), n)
			work := NewDense(n)
			rows := work.rows()
			d := make([]float64, n)
			e := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work.Data, a.Data)
				if err := tred2(context.Background(), rows, d, e, false); err != nil {
					b.Fatal(err)
				}
			}
			reportGflops(b, n)
		})
	}
}

func BenchmarkTql2(b *testing.B) {
	for _, n := range kernelSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := randomSymmetric(rand.New(rand.NewSource(1)), n)
			td := make([]float64, n)
			te := make([]float64, n)
			if err := tred2(context.Background(), a.rows(), td, te, false); err != nil {
				b.Fatal(err)
			}
			d := make([]float64, n)
			e := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(d, td)
				copy(e, te)
				if _, err := tql2(d, e, nil); err != nil {
					b.Fatal(err)
				}
			}
			reportGflops(b, n)
		})
	}
}

func BenchmarkSymEigValues(b *testing.B) {
	for _, n := range kernelSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := randomSymmetric(rand.New(rand.NewSource(1)), n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SymEigValues(a); err != nil {
					b.Fatal(err)
				}
			}
			reportGflops(b, n)
		})
	}
}
