package v10

import (
	"v10/internal/ctlplane"
	"v10/internal/faults"
	"v10/internal/fleet"
	"v10/internal/vnpu"
)

// Fleet serving (see internal/fleet): a front-end dispatcher routes open-loop
// request streams from many tenants onto a fleet of simulated NPU cores, with
// placement driven by the trained collocation advisor (or the least-loaded /
// random baselines), bounded per-core queues with spill-or-shed backpressure,
// and per-tenant SLO accounting.

// FleetPolicy selects how the fleet dispatcher places tenants on cores.
type FleetPolicy = fleet.Policy

// VNPUTemplate declares one spatial vNPU slice as fractions of a core's
// systolic arrays and vector units (Compute), vector memory (VMem), and HBM
// bandwidth (HBM). See internal/vnpu.
type VNPUTemplate = vnpu.Template

// VNPUSliceStats is one slice's enforcement accounting after a run: vmem
// high-water mark against its ceiling, HBM bytes moved, token-bucket throttle
// stalls, and vmem cap hits.
type VNPUSliceStats = vnpu.SliceStats

// ParseVNPUTemplates parses and validates a slice-template spec string like
// "big=0.75:0.75:0.75;small=0.25" — slices separated by ';' or ',', each
// either "[name=]compute:vmem:hbm" or a single "[name=]fraction" applied to
// all three resources. Fractions must lie in (0,1] and may not sum past 1
// for any resource.
func ParseVNPUTemplates(spec string) ([]VNPUTemplate, error) {
	ts, err := vnpu.ParseTemplates(spec)
	if err != nil {
		return nil, err
	}
	if err := vnpu.Validate(ts); err != nil {
		return nil, err
	}
	return ts, nil
}

// Placement policies.
const (
	// PlaceAdvisor groups compatible tenants using a trained Advisor.
	PlaceAdvisor = fleet.PolicyAdvisor
	// PlaceLeastLoaded balances estimated load, ignoring compatibility.
	PlaceLeastLoaded = fleet.PolicyLeastLoaded
	// PlaceRandom scatters tenants uniformly (seeded).
	PlaceRandom = fleet.PolicyRandom
)

// ParseFleetPolicy maps a CLI spelling ("advisor", "least-loaded", "random")
// to a FleetPolicy.
func ParseFleetPolicy(s string) (FleetPolicy, error) { return fleet.ParsePolicy(s) }

// FaultSchedule is an injected set of core faults for a fleet run: fail-stop
// halts, transient straggler stalls, HBM-bandwidth degradation, and
// vector-memory pressure windows (see internal/faults).
type FaultSchedule = faults.Schedule

// ParseFaults parses a fault-schedule spec string like
// "fail@0:30e6;stall@1:10e6+2e6;hbm@2:5e6+1e6x0.5". Faults are separated by
// ';' or ',', each written kind@core:at with +dur and xfactor as the kind
// requires.
func ParseFaults(spec string) (*FaultSchedule, error) { return faults.Parse(spec) }

// GenerateFaults draws a random fault schedule for a fleet: each core
// fail-stops within the horizon with probability 1-e^(-horizon/mttf), with
// transient degradation windows sprinkled in proportion. Deterministic in the
// seed.
func GenerateFaults(cores int, horizonCycles, mttfCycles int64, seed uint64) *FaultSchedule {
	return faults.Generate(cores, horizonCycles, mttfCycles, seed)
}

// ElasticConfig parameterizes the fleet's elastic control plane: an
// SLO-attainment-driven autoscaling loop with hysteresis and cooldown that
// activates spare cores under pressure and drains them (migrating their
// queued work) when the fleet runs cold. See internal/ctlplane.
type ElasticConfig = ctlplane.Config

// ElasticDecision is one recorded control-plane action (scale-up,
// scale-down, or recluster) with the window and cycle it was taken at.
type ElasticDecision = ctlplane.Decision

// FleetControlOutcome is the elastic control plane's recorded outcome for a
// run: scaling counters, drain accounting, the full window-signal and
// decision traces, and per-core activity spans.
type FleetControlOutcome = fleet.ControlOutcome

// FleetAdmission selects the dispatcher's admission policy: AdmitQueueBound
// (the classic bounded queue) or AdmitPredictive (PREMA-style estimated-
// slowdown admission).
type FleetAdmission = fleet.Admission

// Admission policies.
const (
	// AdmitQueueBound admits while the target core's queue is under
	// QueueLimit — the static baseline.
	AdmitQueueBound = fleet.AdmitQueueBound
	// AdmitPredictive admits while the predicted slowdown
	// (wait + service) / service stays within SlowdownLimit.
	AdmitPredictive = fleet.AdmitPredictive
)

// ParseFleetAdmission maps a CLI spelling ("queue-bound", "predictive") to a
// FleetAdmission.
func ParseFleetAdmission(s string) (FleetAdmission, error) { return fleet.ParseAdmission(s) }

// FleetResult is a whole fleet run's outcome: per-core simulation results,
// per-tenant SLO statistics, and aggregate goodput/shed accounting.
type FleetResult = fleet.Result

// FleetTenantStats is one tenant's serving outcome across the fleet.
type FleetTenantStats = fleet.TenantStats

// FleetCoreResult is one core's simulation outcome within a fleet run.
type FleetCoreResult = fleet.CoreResult

// FleetOptions configure ServeFleet; see fleet.Options for every field.
// The zero value serves two V10-Full cores under least-loaded placement at
// the built-in default load. Scheme takes a Scheme's String(). PlaceAdvisor
// needs a trained model: set it with Advisor.Apply, then apply any tuned
// knobs with TunedKnobs.Apply.
type FleetOptions = fleet.Options

// ServeFleet simulates the tenants' open-loop request streams on a fleet of
// NPU cores, each running opt.Scheme's scheduler. Placement, admission
// control (bounded queues with spill/shed backpressure), and per-tenant SLO
// accounting follow opt. Note the PMT baseline serves each core's admitted
// request count closed-loop, so its latencies exclude dispatcher queueing
// delay.
func ServeFleet(tenants []*Workload, opt FleetOptions) (*FleetResult, error) {
	return fleet.Run(tenants, opt)
}
