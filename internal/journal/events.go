package journal

// Event kind registry: the closed vocabulary of journal event kinds.
// Startup replay switches on these strings and gcvet's eventkind
// analyzer rejects inline literals in gated packages, so a typo cannot
// mint an event replay will never apply.
const (
	// KindRequest records a check request arriving at a handler.
	KindRequest = "journal-request"
	// KindVerdict records a computed verdict entering the cache; its
	// append is durable before the HTTP response is written.
	KindVerdict = "journal-verdict"
	// KindOutcome records how a request finished (ok, bad_request,
	// timeout, overload, internal) with its latency.
	KindOutcome = "journal-outcome"
	// KindCampaign records a completed chaos campaign summary.
	KindCampaign = "journal-campaign"
	// KindCheckpoint is one chunk of an in-journal checkpoint
	// (AppendCheckpoint): the owner's serving state as of a journal
	// sequence number, so the history below it can be compacted away.
	KindCheckpoint = "journal-cache-checkpoint"
)
