package program_test

import (
	"testing"

	"udsim/internal/align"
	"udsim/internal/gen"
	"udsim/internal/parsim"
	"udsim/internal/pcset"
	"udsim/internal/program"
)

// BenchmarkSchedule times building the sequential execution form of the
// twenty sim programs sim-stream runs: the ten profiles compiled as
// parallel-pt-trim and as pcset. One op schedules all twenty.
func BenchmarkSchedule(b *testing.B) {
	type job struct {
		p            *program.Program
		scratchStart int32
	}
	var jobs []job
	instrs := 0
	for _, name := range gen.Names() {
		c, err := gen.ISCAS85(name)
		if err != nil {
			b.Fatal(err)
		}
		norm, a, err := parsim.Analyze(c)
		if err != nil {
			b.Fatal(err)
		}
		ps, err := parsim.Compile(norm, parsim.Config{Trim: true, Align: align.PathTrace(a)})
		if err != nil {
			b.Fatal(err)
		}
		_, sim := ps.Programs()
		jobs = append(jobs, job{sim, ps.Spec().ScratchStart})
		pc, err := pcset.Compile(c, nil)
		if err != nil {
			b.Fatal(err)
		}
		_, sim = pc.Programs()
		jobs = append(jobs, job{sim, int32(sim.NumVars)})
	}
	for _, j := range jobs {
		instrs += len(j.p.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			if _, err := program.Schedule(j.p, j.scratchStart); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(instrs), "ns/instr")
}
