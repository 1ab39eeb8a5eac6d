package verify

import (
	"fmt"
	"sort"
	"strings"
)

// Severity grades a finding.
type Severity int

const (
	// SevInfo findings are advisory (dead code, unused slots).
	SevInfo Severity = iota
	// SevWarning findings are suspicious but not proven wrong.
	SevWarning
	// SevError findings are violations of a correctness invariant.
	SevError
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Rule identifiers. Stable: documentation, tests and downstream tools
// match on these strings.
const (
	RuleDefUse    = "V001"
	RuleWAW       = "V002"
	RuleLayout    = "V003"
	RulePhase     = "V004"
	RuleDead      = "V005"
	RuleCycle     = "V006"
	RuleStructure = "V007"
	RuleLoopLive  = "V009"
	RuleInterval  = "V011"
	// RuleLift is the translation-validation rule over emitted source
	// (package codegen/validate): the lifted instruction stream is
	// proven equal to the compiled one, statement by statement and in
	// order.
	RuleLift = "V016"
)

// Retired rule IDs, never reused: V008 (shard-plan dataflow, proven by
// V012), V010 (advisory constant propagation), V012 (happens-before
// races over shard plans; one-worker plans run each level in program
// order, so nothing races), V015 (level-fusion replicas), V017
// (emission-certificate replay) and V018 (def-use re-proven on the
// lifted AST, proven by V016 plus V001/V002).

// Finding is one structured diagnostic.
type Finding struct {
	// Rule is the rule identifier (V001...).
	Rule string
	// Severity grades the finding.
	Severity Severity
	// Prog names the stream the finding is in: "init", "sim" or "spec".
	Prog string
	// Instr is the instruction index within Prog, or -1.
	Instr int
	// Slot is the state slot involved, or -1.
	Slot int32
	// Msg is the human-readable diagnosis.
	Msg string
}

// String renders the finding as one line.
func (f Finding) String() string {
	loc := f.Prog
	if f.Instr >= 0 {
		loc = fmt.Sprintf("%s[%d]", f.Prog, f.Instr)
	}
	if f.Slot >= 0 {
		loc += fmt.Sprintf(" slot %d", f.Slot)
	}
	return fmt.Sprintf("%s %s %s: %s", f.Rule, f.Severity, loc, f.Msg)
}

// Stats holds the quantitative results of the analysis, including the
// dead-code census that udstats reports.
type Stats struct {
	// InitInstrs and SimInstrs count the analyzed instructions.
	InitInstrs int
	SimInstrs  int
	// DeadInit and DeadSim list the indices of instructions whose results
	// can never reach a live-out slot.
	DeadInit []int
	DeadSim  []int
	// UnusedSlots counts state slots no instruction or live-out set ever
	// references.
	UnusedSlots int
	// FieldCapacityBits and FieldUsedBits measure bit-field packing:
	// allocated word capacity versus meaningful bits (from Spec.Fields).
	FieldCapacityBits int
	FieldUsedBits     int
	// LiveInSlots counts the persistent slots live at the vector entry —
	// the state one vector actually hands the next (rule V009's fixpoint
	// liveness).
	LiveInSlots int
	// LivenessPasses is the number of fixpoint passes rule V009's
	// analysis took; 1 means LiveOut already covered every cross-vector
	// dependency.
	LivenessPasses int
}

// DeadInstructions returns the total dead-instruction count.
func (s *Stats) DeadInstructions() int { return len(s.DeadInit) + len(s.DeadSim) }

// WordUtilization returns the fraction of allocated field bits that are
// meaningful, or 1 when the layout has no packed fields.
func (s *Stats) WordUtilization() float64 {
	if s.FieldCapacityBits == 0 {
		return 1
	}
	return float64(s.FieldUsedBits) / float64(s.FieldCapacityBits)
}

// Report is the result of one Check run.
type Report struct {
	// Name echoes Spec.Name.
	Name string
	// Findings lists all diagnostics, errors first.
	Findings []Finding
	// Stats holds the quantitative analysis results.
	Stats Stats
}

// Count returns the number of findings at the given severity.
func (r *Report) Count(sev Severity) int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == sev {
			n++
		}
	}
	return n
}

// Clean reports whether the analysis produced no warnings or errors.
func (r *Report) Clean() bool {
	return r.Count(SevError) == 0 && r.Count(SevWarning) == 0
}

// Err returns nil when the report is clean, or an error summarizing the
// most severe findings otherwise.
func (r *Report) Err() error {
	if r.Clean() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %s: %d error(s), %d warning(s)",
		r.Name, r.Count(SevError), r.Count(SevWarning))
	shown := 0
	for _, f := range r.Findings {
		if f.Severity < SevWarning {
			continue
		}
		b.WriteString("\n\t")
		b.WriteString(f.String())
		if shown++; shown == 5 {
			break
		}
	}
	return fmt.Errorf("%s", b.String())
}

// String renders the report: a summary line plus one line per finding.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d findings (%d errors, %d warnings), %d/%d instrs dead, %.1f%% word utilization\n",
		r.Name, len(r.Findings), r.Count(SevError), r.Count(SevWarning),
		r.Stats.DeadInstructions(), r.Stats.InitInstrs+r.Stats.SimInstrs,
		100*r.Stats.WordUtilization())
	for _, f := range r.Findings {
		b.WriteString("  ")
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// add records a finding.
func (r *Report) add(f Finding) { r.Findings = append(r.Findings, f) }

// Add records a finding. External rule packages (the translation
// validator in codegen/validate) build their reports through it.
func (r *Report) Add(f Finding) { r.add(f) }

// Sort orders the findings under the stable-sort contract; callers that
// assemble reports through Add must call it before rendering.
func (r *Report) Sort() { r.sortFindings() }

// sortFindings orders findings deterministically: most severe first,
// then by (rule, program, instruction address, slot, message). The full
// tiebreak chain matters — repeated runs and the ISCAS integration test
// must produce byte-identical reports, and several rules emit multiple
// findings at one instruction address.
func (r *Report) sortFindings() {
	sort.SliceStable(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Prog != b.Prog {
			return a.Prog < b.Prog
		}
		if a.Instr != b.Instr {
			return a.Instr < b.Instr
		}
		if a.Slot != b.Slot {
			return a.Slot < b.Slot
		}
		return a.Msg < b.Msg
	})
}

// HasRule reports whether any finding carries the given rule ID.
func (r *Report) HasRule(rule string) bool {
	for _, f := range r.Findings {
		if f.Rule == rule {
			return true
		}
	}
	return false
}
