package simcheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"v10/internal/npu"
)

// Harness is one v10check arm. Every arm runs through the same trial,
// minimize and repro path, so a failure from any arm replays and shrinks
// the same way.
type Harness[S any] struct {
	Name     string
	Gen      func(seed uint64) S
	Validate func(S) error    // rejects scenarios the arm's runners would refuse
	Check    func(S) []string // every oracle and invariant message; nil when clean
	Shrink   func(S) []S      // one-step simplifications, most aggressive first
}

// Violation is a failed trial. Its JSON form {"arm", "scenario", "problems"}
// is the one repro format: WriteFile writes it and ReadRepro reads it.
type Violation[S any] struct {
	Arm      string   `json:"arm"`
	Scenario S        `json:"scenario"`
	Problems []string `json:"problems"`
}

// Error implements error.
func (v *Violation[S]) Error() string {
	return fmt.Sprintf("simcheck: %s trial: %d problem(s), first: %s", v.Arm, len(v.Problems), v.Problems[0])
}

// The five arms, one per v10check mode.
var (
	Base = &Harness[*Scenario]{Name: "base", Gen: GenScenario,
		Validate: (*Scenario).Validate, Check: CheckScenario, Shrink: shrinkCandidates}
	Workload = &Harness[*Scenario]{Name: "workload", Gen: GenWorkloadScenario,
		Validate: (*Scenario).Validate, Check: CheckScenario, Shrink: shrinkCandidates}
	Chaos = &Harness[*ChaosScenario]{Name: "chaos", Gen: GenChaosScenario,
		Validate: (*ChaosScenario).Validate, Check: CheckChaosScenario, Shrink: shrinkChaos}
	Isolation = &Harness[*IsolationScenario]{Name: "isolation", Gen: GenIsolationScenario,
		Validate: (*IsolationScenario).Validate, Shrink: shrinkIsolation,
		Check: func(is *IsolationScenario) []string { return checkIsolation(is, nil, nil) }}
	Elastic = &Harness[*ElasticScenario]{Name: "elastic", Gen: GenElasticScenario,
		Validate: (*ElasticScenario).Validate, Shrink: shrinkElastic,
		Check: func(es *ElasticScenario) []string { return checkElastic(es, nil, nil) }}
)

// Trial generates the scenario for a seed and checks it, returning nil on
// pass. A generator emitting an invalid scenario is itself a violation.
func (h *Harness[S]) Trial(seed uint64) *Violation[S] {
	s := h.Gen(seed)
	if err := h.Validate(s); err != nil {
		return &Violation[S]{h.Name, s, []string{"generator produced invalid scenario: " + err.Error()}}
	}
	return h.Run(s)
}

// Run checks one scenario, returning nil on pass. A panic anywhere under the
// runners or oracles becomes the violation's problem.
func (h *Harness[S]) Run(s S) (v *Violation[S]) {
	defer func() {
		if r := recover(); r != nil {
			v = &Violation[S]{h.Name, s, []string{fmt.Sprintf("panic: %v", r)}}
		}
	}()
	if problems := h.Check(s); len(problems) > 0 {
		return &Violation[S]{h.Name, s, problems}
	}
	return nil
}

// Minimize greedily shrinks a violation while it keeps failing: it takes the
// first valid Shrink candidate that still fails and restarts from it,
// spending at most budget re-checks. Each candidate is re-checked from
// scratch, so the result fails for a real reason, not a shrinking artifact.
func (h *Harness[S]) Minimize(v *Violation[S], budget int) *Violation[S] {
	checks := 0
	for improved := true; improved && checks < budget; {
		improved = false
		for _, cand := range h.Shrink(v.Scenario) {
			if checks >= budget {
				break
			}
			if h.Validate(cand) != nil {
				continue
			}
			checks++
			if cv := h.Run(cand); cv != nil {
				v, improved = cv, true
				break // restart the pass from the shrunken scenario
			}
		}
	}
	return v
}

// WriteFile writes the violation as an indented JSON repro.
func (v *Violation[S]) WriteFile(path string) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadRepro loads a repro written by WriteFile, leaving the scenario raw
// until the harness named by its Arm decodes it.
func ReadRepro(path string) (*Violation[json.RawMessage], error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Violation[json.RawMessage]
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("simcheck: %s: %w", path, err)
	}
	if r.Arm == "" || len(r.Scenario) == 0 || string(r.Scenario) == "null" {
		return nil, fmt.Errorf(`simcheck: %s: not a repro (want {"arm", "scenario", "problems"})`, path)
	}
	return &r, nil
}

// Decode parses and validates a repro's scenario for this arm. Unknown
// fields are rejected, so a repro labeled with the wrong arm fails loudly.
func (h *Harness[S]) Decode(raw json.RawMessage) (s S, err error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err = dec.Decode(&s); err != nil {
		return s, fmt.Errorf("simcheck: %s scenario: %w", h.Name, err)
	}
	return s, h.Validate(s)
}

// dropAt returns a copy of s without element i, leaving s untouched.
func dropAt[T any](s []T, i int) []T {
	return append(append(make([]T, 0, len(s)-1), s[:i]...), s[i+1:]...)
}

// validateFleet checks what the fleet arms share with Scenario (the core
// config, the scheme and the tenant specs) and that an arm's per-tenant rows
// (isolation arrivals, elastic traffic) number one per tenant.
func validateFleet(cfg npu.CoreConfig, scheme string, ws []WorkloadSpec, rows int) error {
	if rows != len(ws) {
		return fmt.Errorf("simcheck: %d per-tenant rows for %d tenants", rows, len(ws))
	}
	return (&Scenario{Config: cfg, Schemes: []string{scheme}, Requests: 1, Workloads: ws}).Validate()
}
