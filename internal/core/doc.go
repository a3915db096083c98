// Package core implements CMAP, the paper's contribution: a reactive
// wireless link layer that learns which concurrent transmissions
// conflict from empirical packet loss and uses that knowledge — rather
// than carrier sense — to decide when to transmit.
//
// # Relation to the paper
//
// Each node runs the three cooperating mechanisms of §2–§3:
//
//   - Channel access through the conflict map (§3.1–§3.2): receivers
//     build interferer lists from observed losses and broadcast them;
//     senders fold the lists into defer tables and consult them against
//     the ongoing list of overheard transmissions before every virtual
//     packet — the "transmission decision process" of Figure 6.
//   - A windowed ACK/retransmission protocol with cumulative bitmap
//     ACKs (§3.3, Figure 7): Nwindow virtual packets in flight,
//     tolerating the ACK losses endemic at exposed senders.
//   - Loss-rate-driven backoff (§3.4): the contention window reacts to
//     the loss rate receivers report inside ACKs, not to missing ACKs.
//
// The implementation mirrors the software prototype of §4: each
// transmission is a virtual packet — a small header packet, Nvpkt data
// packets, and a trailer packet sent back to back (§4.1) — so headers
// and trailers survive collisions independently (§3.5) and stream to
// neighbours in time to defer. Config.PerDestQueues enables the §3.2
// per-destination-queue optimisation, SetBroadcast the §3.6 content
// dissemination mode, and the ablation switches (DisableTrailers,
// BackoffOnMissingAck) reproduce the paper's design-choice comparisons.
//
// # The observation table
//
// Each node keeps the transmissions it has overheard (observe.go): the
// §3.2 ongoing list, generalised into a short history that also serves
// the receiver's per-slot loss attribution (§3.1). It holds live state
// only and is pruned on both paths:
//
//   - the sender, before every access decision, drops entries that
//     ended more than the retention (two full virtual-packet airtimes)
//     ago;
//   - the receiver, before attributing a finished virtual packet v,
//     drops entries that ended before min(now − retention, v.start).
//     No slot of v can overlap such an entry, and the horizon is never
//     later than the sender's, so neither reader loses an entry it
//     could still use.
//
// Nodes that only receive therefore hold a handful of entries however
// long the run, instead of every transmission they ever overheard. The
// table is a flat slice in insertion order (canonical (Src, VSeq) order
// after a checkpoint restore); the attribution and ongoing-list
// callbacks commute, so the order never reaches a result, which
// TestObservationOrderIndependent and FuzzObservations pin.
//
// # Traffic
//
// SetSaturated is the paper's always-backlogged model. Enqueue/Backlog
// satisfy traffic.Enqueuer, so arrival processes (internal/traffic) can
// drive a node with finite backlogs instead; fresh packets consume
// consecutive sequence numbers per flow, which is what maps a delivery
// back to its arrival time for latency measurement.
package core
