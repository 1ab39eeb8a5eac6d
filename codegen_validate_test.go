package udsim

import (
	"strings"
	"testing"

	"udsim/internal/verify"
)

// TestWithCodegenValidation asserts the facade option translation-
// validates both compiled techniques' emissions at build time and that
// the on-demand ValidateCodegen helper produces a clean report for the
// same engines.
func TestWithCodegenValidation(t *testing.T) {
	c, err := ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range []Technique{TechParallel, TechPCSet} {
		e, err := Open(c, tech, WithCodegenValidation())
		if err != nil {
			t.Fatalf("%v: %v", tech, err)
		}
		rep, err := ValidateCodegen(e)
		if err != nil {
			t.Fatalf("%v: %v", tech, err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("%v: report not clean: %v", tech, err)
		}
		if rep.HasRule(verify.RuleLift) {
			t.Fatalf("%v: unexpected %s finding", tech, verify.RuleLift)
		}
	}
}

// TestWithCodegenValidationComposes exercises the option together with
// the program-rewriting passes — the validated streams must be the
// final, post-elimination ones.
func TestWithCodegenValidationComposes(t *testing.T) {
	c, err := ISCAS85("c880")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(c, TechParallel,
		WithTrimming(), WithDeadStoreElimination(), WithCodegenValidation()); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(c, TechPCSet,
		WithDeadStoreElimination(), WithCodegenValidation()); err != nil {
		t.Fatal(err)
	}
}

// TestCodegenValidationRejectedForInterpreted pins the compiled-only
// contract for the new option and the helper.
func TestCodegenValidationRejectedForInterpreted(t *testing.T) {
	c, err := ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range []Technique{TechEvent3, TechEvent2, TechLCC} {
		_, err := Open(c, tech, WithCodegenValidation())
		if err == nil || !strings.Contains(err.Error(), "WithCodegenValidation") {
			t.Fatalf("%v: want WithCodegenValidation rejection, got %v", tech, err)
		}
	}
	e, err := Open(c, TechEvent3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateCodegen(e); err == nil {
		t.Fatal("ValidateCodegen accepted an interpreted engine")
	}
}
