package concretize

import "github.com/paper-repo-growth/go-arxiv/internal/faultpoint"

// Fault-injection sites (see internal/faultpoint for the naming
// convention). Both sites carry an empty label: a session has no identity
// of its own — resolver layers that need to target one member or shard do
// it by schedule position (the broadcast order is deterministic) or
// through their own labeled sites.
var (
	// fpExtend fires at the top of Session.Extend, before the universe or
	// the encoding mutate. For a session whose universe a sibling already
	// advanced (the pool broadcast case) an injected error
	// leaves the encoding one epoch behind the universe — exactly the
	// stale-member state the member rebuild exists for.
	fpExtend = faultpoint.New("concretize/extend")
	// fpMaterialize fires when a session is about to materialize a
	// request's reachable subgraph; an injected error fails the request
	// before any solver mutation.
	fpMaterialize = faultpoint.New("concretize/materialize")
)
