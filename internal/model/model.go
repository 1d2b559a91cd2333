// Package model defines the application and platform model used by the
// multi-cluster synthesis flow of Pop, Eles and Peng (DATE 2003).
//
// An Application is a set of process graphs (directed acyclic graphs of
// processes connected by edges). Each graph has a period and an end-to-end
// deadline. Processes are statically mapped onto the nodes of a two-cluster
// Architecture: a time-triggered cluster (TTC) whose nodes share a TTP/TDMA
// bus, and an event-triggered cluster (ETC) whose nodes share a CAN bus.
// A dedicated gateway node is connected to both buses and forwards
// inter-cluster traffic.
//
// All times in this module are expressed as integer ticks (Time). The
// interpretation of a tick (e.g. 1 ms, 10 µs) is up to the caller; the
// paper's examples use 1 tick = 1 ms.
package model

import "fmt"

// Time is a duration or instant in integer ticks.
type Time = int64

// ClusterKind tells which cluster a node belongs to.
type ClusterKind uint8

const (
	// TimeTriggered marks a node of the TTC. Its processes run according
	// to a static schedule table and its messages travel in the node's
	// TDMA slot on the TTP bus.
	TimeTriggered ClusterKind = iota
	// EventTriggered marks a node of the ETC. Its processes are scheduled
	// by a fixed-priority preemptive scheduler and its messages travel on
	// the CAN bus.
	EventTriggered
	// GatewayNode marks the single gateway node. It hosts only the
	// transfer process T and owns one TDMA slot (S_G) plus a CAN
	// identifier range for forwarded traffic.
	GatewayNode
)

// String returns a short human-readable cluster name.
func (k ClusterKind) String() string {
	switch k {
	case TimeTriggered:
		return "TT"
	case EventTriggered:
		return "ET"
	case GatewayNode:
		return "GW"
	}
	return fmt.Sprintf("ClusterKind(%d)", uint8(k))
}

// NodeID identifies a node inside an Architecture (index into Nodes).
type NodeID int

// ProcID identifies a process inside an Application (index into Procs).
type ProcID int

// EdgeID identifies an edge inside an Application (index into Edges).
type EdgeID int

// Node is a processing element of one of the clusters.
type Node struct {
	ID   NodeID      `json:"id"`
	Name string      `json:"name"`
	Kind ClusterKind `json:"kind"`
}

// TTPConfig holds the physical parameters of the TTP bus that do not
// depend on the synthesized TDMA configuration.
type TTPConfig struct {
	// TickPerByte is the bus time needed to transmit one byte inside a
	// slot. The byte capacity of a slot of length L is L / TickPerByte.
	TickPerByte Time `json:"tickPerByte"`
}

// CANConfig holds the physical parameters of the CAN bus.
type CANConfig struct {
	// BitTime is the duration of one bit on the CAN bus, in ticks.
	// Worst-case frame times are derived from it by package can.
	BitTime Time `json:"bitTime"`
}

// Architecture is the two-cluster hardware/software platform: TTC nodes,
// ETC nodes and the gateway, plus bus parameters and the gateway transfer
// process characteristics.
type Architecture struct {
	Name  string `json:"name"`
	Nodes []Node `json:"nodes"`
	// Gateway is the ID of the gateway node. Exactly one node must have
	// Kind == GatewayNode and Gateway must refer to it.
	Gateway NodeID `json:"gateway"`

	TTP TTPConfig `json:"ttp"`
	CAN CANConfig `json:"can"`

	// GatewayCost is C_T, the worst-case execution time of the transfer
	// process T that copies messages between the MBI and the gateway
	// output queues. T has the highest priority on the gateway node, so
	// its worst-case response time is C_T.
	GatewayCost Time `json:"gatewayCost"`
	// GatewayPoll is the period with which T polls the MBI for frames
	// arriving from the TTP bus. It is added to the jitter of messages
	// travelling TTC -> ETC. Zero models the paper's §4.2 example, where
	// the polling delay is folded into r_T.
	GatewayPoll Time `json:"gatewayPoll"`
}

// TTNodes returns the IDs of the time-triggered nodes in architecture
// order (excluding the gateway).
func (a *Architecture) TTNodes() []NodeID {
	return a.nodesOf(TimeTriggered)
}

// ETNodes returns the IDs of the event-triggered nodes in architecture
// order (excluding the gateway).
func (a *Architecture) ETNodes() []NodeID {
	return a.nodesOf(EventTriggered)
}

func (a *Architecture) nodesOf(k ClusterKind) []NodeID {
	var ids []NodeID
	for _, n := range a.Nodes {
		if n.Kind == k {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// Kind returns the cluster kind of node id.
func (a *Architecture) Kind(id NodeID) ClusterKind {
	return a.Nodes[id].Kind
}

// SlotOwners returns the nodes that own a TDMA slot on the TTP bus: all
// TT nodes plus the gateway, in architecture order. Every TDMA round
// contains exactly one slot per owner.
func (a *Architecture) SlotOwners() []NodeID { return a.AppendSlotOwners(nil) }

// AppendSlotOwners appends the slot owners to dst and returns the
// extended slice, so that per-analysis checks can list them into a
// caller-owned buffer instead of a fresh slice.
func (a *Architecture) AppendSlotOwners(dst []NodeID) []NodeID {
	for _, n := range a.Nodes {
		if n.Kind == TimeTriggered || n.Kind == GatewayNode {
			dst = append(dst, n.ID)
		}
	}
	return dst
}

// Process is a node of a process graph, statically mapped on a platform
// node.
type Process struct {
	ID    ProcID `json:"id"`
	Name  string `json:"name"`
	Graph int    `json:"graph"`
	// WCET is the worst-case execution time on the mapped node.
	WCET Time `json:"wcet"`
	// BCET is the best-case execution time, used only by the simulator.
	// Zero means "equal to WCET".
	BCET Time `json:"bcet,omitempty"`
	// Node is the platform node the process is mapped on.
	Node NodeID `json:"node"`
	// Deadline is an optional local deadline relative to the graph
	// release. Zero means no local deadline.
	Deadline Time `json:"deadline,omitempty"`
}

// Edge is a dependency between two processes of the same graph. When the
// endpoint processes are mapped on different nodes the edge materializes
// as a message of Size bytes (the black dots of Fig. 1 in the paper);
// otherwise it is a pure precedence constraint.
type Edge struct {
	ID    EdgeID `json:"id"`
	Name  string `json:"name"`
	Graph int    `json:"graph"`
	Src   ProcID `json:"src"`
	Dst   ProcID `json:"dst"`
	// Size is the message payload in bytes.
	Size int `json:"size"`
	// CANTime optionally overrides the worst-case CAN frame time of this
	// message (used to reproduce the paper's worked examples, which pick
	// round numbers instead of deriving frame times from the bit rate).
	// Zero means "derive from Size and CANConfig.BitTime".
	CANTime Time `json:"canTime,omitempty"`
}

// Graph is one process graph G_i: a connected DAG of processes released
// together with period Period and end-to-end deadline Deadline.
type Graph struct {
	Name string `json:"name"`
	// Period is T_Gi, the release period of the graph. All processes and
	// messages of the graph share it.
	Period Time `json:"period"`
	// Deadline is D_Gi <= Period, measured from the release.
	Deadline Time `json:"deadline"`
	// Procs and Edges list the members of the graph in creation order.
	Procs []ProcID `json:"procs"`
	Edges []EdgeID `json:"edges"`
}

// Application is a set of process graphs plus the flat pools of processes
// and edges they are made of. Use NewApplication and the Add* builder
// methods, then Finalize before handing the application to analysis.
type Application struct {
	Name   string    `json:"name"`
	Graphs []Graph   `json:"graphs"`
	Procs  []Process `json:"procs"`
	Edges  []Edge    `json:"edges"`

	// Structure caches, built by Finalize: the adjacency lists and each
	// graph's topological order (or the cycle error that prevents one),
	// plus their concatenation over all graphs, and the divisors of the
	// hyper-period divisorsOf (see HyperDivisors).
	out        [][]EdgeID
	in         [][]EdgeID
	topo       [][]ProcID
	topoErr    []error
	topoAll    []ProcID
	topoAllErr error
	divisors   []Time
	divisorsOf Time
}

// NewApplication returns an empty application with the given name.
func NewApplication(name string) *Application {
	return &Application{Name: name}
}

// AddGraph appends a new process graph and returns its index.
func (a *Application) AddGraph(name string, period, deadline Time) int {
	a.Graphs = append(a.Graphs, Graph{Name: name, Period: period, Deadline: deadline})
	a.invalidate()
	return len(a.Graphs) - 1
}

// AddProcess appends a process to graph g and returns its ID.
func (a *Application) AddProcess(g int, name string, wcet Time, node NodeID) ProcID {
	id := ProcID(len(a.Procs))
	a.Procs = append(a.Procs, Process{ID: id, Name: name, Graph: g, WCET: wcet, Node: node})
	a.Graphs[g].Procs = append(a.Graphs[g].Procs, id)
	a.invalidate()
	return id
}

// AddEdge appends a dependency (and potential message of size bytes)
// between two processes of the same graph and returns its ID.
func (a *Application) AddEdge(name string, src, dst ProcID, size int) EdgeID {
	id := EdgeID(len(a.Edges))
	g := a.Procs[src].Graph
	a.Edges = append(a.Edges, Edge{ID: id, Name: name, Graph: g, Src: src, Dst: dst, Size: size})
	a.Graphs[g].Edges = append(a.Graphs[g].Edges, id)
	a.invalidate()
	return id
}

func (a *Application) invalidate() { a.out, a.in, a.topo, a.divisors = nil, nil, nil, nil }

// Finalize builds the structure caches and validates the application
// against arch. It must be called (and succeed) before analysis.
//
// The caches hold what depends only on the graph structure and the
// periods: the adjacency lists, the topological orders and the divisors
// of the hyper-period (which Config.Normalize searches for the round
// padding). Adding a graph, process or edge drops them. Tables weighted
// by WCETs, such as LongestPathToSink, are recomputed on every use, so a
// WCET changed in place after Finalize is always seen. A period changed
// in place is seen too: HyperDivisors checks the cached list against the
// current hyper-period and recomputes it on a mismatch.
func (a *Application) Finalize(arch *Architecture) error {
	a.buildAdjacency()
	return a.Validate(arch)
}

func (a *Application) buildAdjacency() {
	a.out = make([][]EdgeID, len(a.Procs))
	a.in = make([][]EdgeID, len(a.Procs))
	for _, e := range a.Edges {
		a.out[e.Src] = append(a.out[e.Src], e.ID)
		a.in[e.Dst] = append(a.in[e.Dst], e.ID)
	}
	a.topo = make([][]ProcID, len(a.Graphs))
	a.topoErr = make([]error, len(a.Graphs))
	a.topoAll, a.topoAllErr = nil, nil
	for g := range a.Graphs {
		a.topo[g], a.topoErr[g] = a.topoOrder(g)
		if a.topoErr[g] != nil && a.topoAllErr == nil {
			a.topoAllErr = a.topoErr[g]
		}
		a.topoAll = append(a.topoAll, a.topo[g]...)
	}
	if a.topoAllErr != nil {
		a.topoAll = nil
	}
	a.divisors, a.divisorsOf = nil, 0
	if h, err := a.Hyperperiod(); err == nil {
		a.divisors, a.divisorsOf = Divisors(h), h
	}
}

func (a *Application) ensureAdjacency() {
	if a.out == nil || a.in == nil || a.topo == nil {
		a.buildAdjacency()
	}
}

// OutEdges returns the edges leaving process p, in creation order.
func (a *Application) OutEdges(p ProcID) []EdgeID {
	a.ensureAdjacency()
	return a.out[p]
}

// InEdges returns the edges entering process p, in creation order.
func (a *Application) InEdges(p ProcID) []EdgeID {
	a.ensureAdjacency()
	return a.in[p]
}

// Succs returns the successor processes of p, in edge creation order.
func (a *Application) Succs(p ProcID) []ProcID {
	var s []ProcID
	for _, e := range a.OutEdges(p) {
		s = append(s, a.Edges[e].Dst)
	}
	return s
}

// Preds returns the predecessor processes of p, in edge creation order.
func (a *Application) Preds(p ProcID) []ProcID {
	var s []ProcID
	for _, e := range a.InEdges(p) {
		s = append(s, a.Edges[e].Src)
	}
	return s
}

// PeriodOf returns the period of the graph process p belongs to.
func (a *Application) PeriodOf(p ProcID) Time { return a.Graphs[a.Procs[p].Graph].Period }

// EdgePeriod returns the period of the graph edge e belongs to.
func (a *Application) EdgePeriod(e EdgeID) Time { return a.Graphs[a.Edges[e].Graph].Period }
