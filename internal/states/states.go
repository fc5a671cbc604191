// Package states defines the RADICAL-Pilot task and pilot state models and
// their legal transitions.
//
// RP models both pilots and tasks as state machines coordinated by an
// event-driven execution engine (paper §3). The state names follow RP's
// canonical model, collapsed to the granularity the paper's profiling
// analysis uses.
package states

import (
	"fmt"
	"slices"
)

// TaskState is a state in the task lifecycle.
type TaskState int

// Task lifecycle, in canonical order. Tasks launched via Flux or Dragon
// traverse the same states as srun-launched ones: the paper calls this
// "consistent behaviour ... regardless of the underlying launcher".
const (
	TaskNew             TaskState = iota
	TaskTMGRSchedule              // client-side task manager accepted the task
	TaskAgentStagingIn            // agent staging input data
	TaskAgentSchedule             // waiting for / receiving a resource assignment
	TaskAgentExecuting            // handed to an executor backend (queued there)
	TaskRunning                   // backend reported the task process started
	TaskAgentStagingOut           // agent staging output data
	TaskDone
	TaskFailed
	TaskCanceled
)

var taskStateNames = [...]string{
	TaskNew:             "NEW",
	TaskTMGRSchedule:    "TMGR_SCHEDULING",
	TaskAgentStagingIn:  "AGENT_STAGING_INPUT",
	TaskAgentSchedule:   "AGENT_SCHEDULING",
	TaskAgentExecuting:  "AGENT_EXECUTING",
	TaskRunning:         "RUNNING",
	TaskAgentStagingOut: "AGENT_STAGING_OUTPUT",
	TaskDone:            "DONE",
	TaskFailed:          "FAILED",
	TaskCanceled:        "CANCELED",
}

func (s TaskState) String() string {
	if s >= 0 && int(s) < len(taskStateNames) {
		return taskStateNames[s]
	}
	return fmt.Sprintf("TaskState(%d)", int(s))
}

// Final reports whether the state is terminal.
func (s TaskState) Final() bool {
	return s == TaskDone || s == TaskFailed || s == TaskCanceled
}

// taskTransitions lists the legal forward edges of the task state machine,
// indexed by the source state; final states have none.
var taskTransitions = [...][]TaskState{
	TaskNew:             {TaskTMGRSchedule, TaskFailed, TaskCanceled},
	TaskTMGRSchedule:    {TaskAgentStagingIn, TaskFailed, TaskCanceled},
	TaskAgentStagingIn:  {TaskAgentSchedule, TaskFailed, TaskCanceled},
	TaskAgentSchedule:   {TaskAgentExecuting, TaskFailed, TaskCanceled},
	TaskAgentExecuting:  {TaskRunning, TaskFailed, TaskCanceled},
	TaskRunning:         {TaskAgentStagingOut, TaskDone, TaskFailed, TaskCanceled},
	TaskAgentStagingOut: {TaskDone, TaskFailed, TaskCanceled},
}

// CanTransition reports whether from → to is a legal task transition.
func CanTransition(from, to TaskState) bool {
	return from >= 0 && int(from) < len(taskTransitions) && slices.Contains(taskTransitions[from], to)
}

// Validate panics when from → to is illegal; components call it on every
// transition so state-machine bugs surface immediately.
func Validate(from, to TaskState) {
	if !CanTransition(from, to) {
		panic(fmt.Sprintf("states: illegal task transition %v -> %v", from, to))
	}
}

// PilotState is a state in the pilot lifecycle.
type PilotState int

// Pilot lifecycle.
const (
	PilotNew       PilotState = iota
	PilotLaunching            // waiting for the RJMS allocation
	PilotActive               // agent bootstrapped, executing tasks
	PilotDone
	PilotFailed
	PilotCanceled
)

var pilotStateNames = [...]string{
	PilotNew:       "NEW",
	PilotLaunching: "PMGR_ACTIVE_PENDING",
	PilotActive:    "PMGR_ACTIVE",
	PilotDone:      "DONE",
	PilotFailed:    "FAILED",
	PilotCanceled:  "CANCELED",
}

func (s PilotState) String() string {
	if s >= 0 && int(s) < len(pilotStateNames) {
		return pilotStateNames[s]
	}
	return fmt.Sprintf("PilotState(%d)", int(s))
}

// Final reports whether the pilot state is terminal.
func (s PilotState) Final() bool {
	return s == PilotDone || s == PilotFailed || s == PilotCanceled
}

var pilotTransitions = [...][]PilotState{
	PilotNew:       {PilotLaunching, PilotFailed, PilotCanceled},
	PilotLaunching: {PilotActive, PilotFailed, PilotCanceled},
	PilotActive:    {PilotDone, PilotFailed, PilotCanceled},
}

// CanTransitionPilot reports whether from → to is a legal pilot transition.
func CanTransitionPilot(from, to PilotState) bool {
	return from >= 0 && int(from) < len(pilotTransitions) && slices.Contains(pilotTransitions[from], to)
}

// ValidatePilot panics when from → to is illegal.
func ValidatePilot(from, to PilotState) {
	if !CanTransitionPilot(from, to) {
		panic(fmt.Sprintf("states: illegal pilot transition %v -> %v", from, to))
	}
}
