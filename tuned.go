package v10

import "v10/internal/tune"

// Policy tuning (see internal/tune): cmd/v10tune searches the serving
// stack's cross-layer knob space — scheduler quantum and preemption margin,
// dispatcher queue bound and priority bias, collocation threshold, migration
// backoff, and the elastic control plane's cooldown/drain parameters — with
// a seeded evolutionary search over the deterministic simulator, and commits
// the winner under results/tuned_policy.json. The types below let serving
// callers load and apply such a policy.

// TunedKnobs is the typed cross-layer policy vector the tuner optimizes.
// Apply it to a fleet run with TunedKnobs.Apply(opt), after Advisor.Apply:
// the collocation-threshold knob only takes effect on a run with a model.
type TunedKnobs = tune.Knobs

// TunedPolicy is the on-disk form of a tuned knob vector: the knobs plus the
// provenance (seed, budget, objectives) of the search that produced them.
type TunedPolicy = tune.Policy

// LoadTunedPolicy reads and validates a tuned-policy JSON file (as written
// by v10tune -out). Unknown fields, malformed JSON, and out-of-range or
// non-finite knob values are all rejected with the tuner's shared knob-range
// errors — a policy that loads is safe to serve with.
func LoadTunedPolicy(path string) (*TunedPolicy, error) { return tune.LoadPolicy(path) }

// DefaultTunedKnobs returns the serving stack's built-in operating point —
// the baseline every tuned policy is measured against.
func DefaultTunedKnobs() TunedKnobs { return tune.DefaultKnobs() }

// BuiltinTunedKnobs returns the committed v10tune search winner (the knobs
// of results/tuned_policy.json, compiled in): versus the defaults it holds
// higher fleet goodput at no-worse p99 on the tuner's regression-gate
// scenarios.
func BuiltinTunedKnobs() TunedKnobs { return tune.Tuned() }
