package verify

import (
	"encoding/json"
	"fmt"
	"io"
)

// RuleDoc is one rule's output metadata: the stable identifier plus a
// short title, used by the JSON and SARIF writers and the CLI help.
type RuleDoc struct {
	ID    string
	Title string
}

// RuleDocs lists every rule in identifier order.
var RuleDocs = []RuleDoc{
	{RuleDefUse, "def-before-use: every read is previous-vector state, a runtime input, or written earlier"},
	{RuleWAW, "single assignment: one fresh definition per persistent slot per program"},
	{RuleLayout, "bit-field layout: packed fields in range and mutually disjoint"},
	{RulePhase, "shift/phase consistency: operands aligned to one simulated time"},
	{RuleDead, "dead code: stores that can never reach a live-out slot"},
	{RuleCycle, "combinational cycles: the slot dependency graph is acyclic"},
	{RuleStructure, "structural validity: opcode, operand and metadata ranges"},
	{RuleLoopLive, "vector-loop liveness: the cross-vector fixpoint agrees with the census"},
	{RuleInterval, "bit-interval containment: accumulated bits disjoint from bits already held"},
	{RuleRewrite, "resubstitution rewrite: optimized netlist structurally valid, boundary preserved, net map consistent"},
	{RuleCert, "resubstitution certificate: merge and constant proofs replay, original and optimized circuits equivalent"},
	{RuleLift, "translation validation: emitted source lifts back to an instruction stream equivalent to the compiled program"},
}

// jsonFinding mirrors Finding with stable lowercase field names; the
// severity is its string form, not the internal integer.
type jsonFinding struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	Prog     string `json:"prog"`
	Instr    int    `json:"instr"`
	Slot     int32  `json:"slot"`
	Msg      string `json:"msg"`
}

// jsonStats mirrors the Stats census counters.
type jsonStats struct {
	InitInstrs      int     `json:"initInstrs"`
	SimInstrs       int     `json:"simInstrs"`
	DeadInstrs      int     `json:"deadInstrs"`
	UnusedSlots     int     `json:"unusedSlots"`
	WordUtilization float64 `json:"wordUtilization"`
	LiveInSlots     int     `json:"liveInSlots"`
	LivenessPasses  int     `json:"livenessPasses"`
}

// jsonReport is one technique's report.
type jsonReport struct {
	Technique string        `json:"technique"`
	Clean     bool          `json:"clean"`
	Errors    int           `json:"errors"`
	Warnings  int           `json:"warnings"`
	Findings  []jsonFinding `json:"findings"`
	Stats     jsonStats     `json:"stats"`
}

// jsonDocument is the top-level udlint/v1 JSON document.
type jsonDocument struct {
	Schema  string       `json:"schema"`
	Circuit string       `json:"circuit"`
	Reports []jsonReport `json:"reports"`
}

// WriteJSON renders the reports as the stable udlint/v1 JSON document.
// Field names, rule identifiers and severity strings are a compatibility
// surface: downstream tooling matches on them.
func WriteJSON(w io.Writer, circuit string, reports []*Report) error {
	doc := jsonDocument{Schema: "udlint/v1", Circuit: circuit}
	for _, r := range reports {
		jr := jsonReport{
			Technique: r.Name,
			Clean:     r.Clean(),
			Errors:    r.Count(SevError),
			Warnings:  r.Count(SevWarning),
			Findings:  []jsonFinding{},
			Stats: jsonStats{
				InitInstrs:      r.Stats.InitInstrs,
				SimInstrs:       r.Stats.SimInstrs,
				DeadInstrs:      r.Stats.DeadInstructions(),
				UnusedSlots:     r.Stats.UnusedSlots,
				WordUtilization: r.Stats.WordUtilization(),
				LiveInSlots:     r.Stats.LiveInSlots,
				LivenessPasses:  r.Stats.LivenessPasses,
			},
		}
		for _, f := range r.Findings {
			jr.Findings = append(jr.Findings, jsonFinding{
				Rule: f.Rule, Severity: f.Severity.String(), Prog: f.Prog,
				Instr: f.Instr, Slot: f.Slot, Msg: f.Msg,
			})
		}
		doc.Reports = append(doc.Reports, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Minimal SARIF 2.1.0 document structure — only the fields udlint emits.
type sarifDocument struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
	// Properties carries the structured witness fields (technique, prog,
	// instr, slot) so consumers need not parse the message text.
	Properties map[string]any `json:"properties"`
}

type sarifLocation struct {
	LogicalLocations []sarifLogicalLocation `json:"logicalLocations"`
}

type sarifLogicalLocation struct {
	FullyQualifiedName string `json:"fullyQualifiedName"`
}

// sarifLevel maps a severity to the SARIF result level.
func sarifLevel(s Severity) string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	}
	return "note"
}

// WriteSARIF renders the reports as a SARIF 2.1.0 document (one run, all
// techniques), the format CI annotators ingest. Instruction streams have
// no files, so findings carry logical locations:
// "technique/prog[instr]", with the raw coordinates duplicated in the
// result properties.
func WriteSARIF(w io.Writer, circuit string, reports []*Report) error {
	driver := sarifDriver{Name: "udlint"}
	for _, d := range RuleDocs {
		driver.Rules = append(driver.Rules, sarifRule{ID: d.ID, ShortDescription: sarifMessage{Text: d.Title}})
	}
	run := sarifRun{Tool: sarifTool{Driver: driver}, Results: []sarifResult{}}
	for _, r := range reports {
		for _, f := range r.Findings {
			loc := f.Prog
			if f.Instr >= 0 {
				loc = fmt.Sprintf("%s[%d]", f.Prog, f.Instr)
			}
			run.Results = append(run.Results, sarifResult{
				RuleID:  f.Rule,
				Level:   sarifLevel(f.Severity),
				Message: sarifMessage{Text: fmt.Sprintf("%s: %s", r.Name, f.Msg)},
				Locations: []sarifLocation{{LogicalLocations: []sarifLogicalLocation{
					{FullyQualifiedName: fmt.Sprintf("%s/%s", r.Name, loc)},
				}}},
				Properties: map[string]any{
					"circuit": circuit, "technique": r.Name,
					"prog": f.Prog, "instr": f.Instr, "slot": f.Slot,
				},
			})
		}
	}
	doc := sarifDocument{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{run},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
