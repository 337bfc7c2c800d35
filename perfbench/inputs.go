package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"sort"

	"quicksand"
	"quicksand/internal/bgp"
)

// AS numbers of the traffic workloads. The daemon and the generator take
// 4-byte private ASNs so that both ends advertise the AS4 capability;
// tracer origins come from the same 4-byte private range, far from every
// origin of the generated world, so each tracer is unique for any run
// length (the 2-byte AS_TRANS collapse is recorded in NOTES.md).
const (
	daemonASN    = 4200000000
	genASN       = 4200000001
	transitBase  = 4220000000 // + pass or variant: the changing hop
	tracerASBase = 4250000000 // + tracer index
	bgOriginBase = 4230000000 // + table row % bgOrigins: flood-table origins
	bgOrigins    = 50000
)

// tableSize is the flood-table background RIB: distinct /24s, a
// full-table-sized working set that outgrows the CPU caches.
const tableSize = 300000

// pacedVariants is how many distinct paths each watched prefix cycles
// through on paced-tor, so consecutive re-announcements always change
// the path.
const pacedVariants = 8

var nextHop = netip.AddrFrom4([4]byte{203, 0, 113, 1})

// tracerSpec is one scheduled hijack: a watched prefix announced with a
// unique bogus origin.
type tracerSpec struct {
	prefix netip.Prefix
	origin bgp.ASN
	msg    []byte
}

// inputs is everything a traffic workload sends, derived from the seed.
type inputs struct {
	watched   map[netip.Prefix]bgp.ASN
	watchList []netip.Prefix // sorted

	// Background messages, one prefix each, laid out back to back. For
	// flood-table every message has the same length msgLen and the
	// changing transit hop sits at transitOff within it; for paced-tor
	// offs holds message boundaries (len = messages+1).
	bg         []byte
	msgLen     int
	transitOff int
	offs       []int
	// warmN leading background messages form the set-up warm-up: one
	// announcement per table prefix.
	warmN int

	tracers []tracerSpec
}

// messages returns the number of background messages.
func (in *inputs) messages() int {
	if in.msgLen > 0 {
		return len(in.bg) / in.msgLen
	}
	return len(in.offs) - 1
}

// span returns the byte range of background messages [lo, hi).
func (in *inputs) span(lo, hi int) []byte {
	if in.msgLen > 0 {
		return in.bg[lo*in.msgLen : hi*in.msgLen]
	}
	return in.bg[in.offs[lo]:in.offs[hi]]
}

// setTransit rewrites the transit hop of every flood-table message, so
// the next pass over the table re-announces every prefix with a changed
// path.
func (in *inputs) setTransit(pass int) {
	asn := uint32(transitBase + pass)
	for off := in.transitOff; off < len(in.bg); off += in.msgLen {
		binary.BigEndian.PutUint32(in.bg[off:], asn)
	}
}

// watchlist builds the paper-scale Tor watchlist of the seed's world:
// every relay-hosting prefix with its legitimate origin, the file
// `torgen -scale paper -prefixes` writes.
func watchlist(seed int64) (map[netip.Prefix]bgp.ASN, error) {
	cfg := quicksand.DefaultWorldConfig()
	cfg.Seed = seed
	cfg.Topology.Seed = seed
	cfg.Consensus.Seed = seed
	w, err := quicksand.BuildWorld(cfg)
	if err != nil {
		return nil, err
	}
	out := make(map[netip.Prefix]bgp.ASN, len(w.Hosting.Prefixes))
	for p, a := range w.Hosting.Prefixes {
		out[p] = a
	}
	return out, nil
}

// writeWatchFile writes the watchlist in the `serve -watch` format.
func writeWatchFile(path string, list []netip.Prefix, watched map[netip.Prefix]bgp.ASN) error {
	var b bytes.Buffer
	for _, p := range list {
		fmt.Fprintf(&b, "%s %d\n", p, uint32(watched[p]))
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func announce(prefix netip.Prefix, path ...bgp.ASN) ([]byte, error) {
	u := &bgp.Update{
		NLRI: []netip.Prefix{prefix},
		Attrs: bgp.PathAttributes{
			HasOrigin: true, Origin: bgp.OriginIGP,
			HasASPath: true, ASPath: bgp.Sequence(path...),
			NextHop: nextHop,
		},
	}
	return u.AppendMessage(nil, true)
}

// buildInputs derives a workload's watchlist, background stream and
// tracer schedule from the seed. tracers is the number of hijacks.
func buildInputs(workload string, seed int64, tracers int) (*inputs, error) {
	watched, err := watchlist(seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{watched: watched}
	for p := range watched {
		in.watchList = append(in.watchList, p)
	}
	sort.Slice(in.watchList, func(i, j int) bool { return in.watchList[i].Addr().Less(in.watchList[j].Addr()) })
	rng := rand.New(rand.NewSource(seed))

	switch workload {
	case "flood-table":
		err = in.buildTable(rng)
	case "paced-tor":
		err = in.buildTorChurn(rng)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}

	perm := rng.Perm(len(in.watchList))
	for i := 0; i < tracers; i++ {
		t := tracerSpec{prefix: in.watchList[perm[i%len(perm)]], origin: bgp.ASN(tracerASBase + i)}
		if t.msg, err = announce(t.prefix, genASN, t.origin); err != nil {
			return nil, err
		}
		in.tracers = append(in.tracers, t)
	}
	return in, nil
}

// buildTable lays out tableSize distinct /24s, in seeded order, drawn
// from first octets that no watched prefix uses, so no background
// prefix equals, covers or is covered by a watched one.
func (in *inputs) buildTable(rng *rand.Rand) error {
	used := make(map[byte]bool)
	for _, p := range in.watchList {
		if p.Bits() < 8 {
			return fmt.Errorf("watched prefix %v is shorter than /8", p)
		}
		used[p.Addr().As4()[0]] = true
	}
	var octets []byte
	for o := 40; o < 100 && len(octets)*65536 < tableSize*3/2; o++ {
		if !used[byte(o)] {
			octets = append(octets, byte(o))
		}
	}
	space := len(octets) * 65536
	if space < tableSize {
		return fmt.Errorf("background space of %d /24s is below the table size %d", space, tableSize)
	}
	// A seeded sample of tableSize distinct /24s from the space.
	picked := rng.Perm(space)[:tableSize]

	probe1, err := announce(netip.MustParsePrefix("40.0.0.0/24"), genASN, 0x11111111, 1)
	if err != nil {
		return err
	}
	probe2, _ := announce(netip.MustParsePrefix("40.0.0.0/24"), genASN, 0x22222222, 1)
	in.msgLen = len(probe1)
	in.transitOff = -1
	for i := range probe1 {
		if probe1[i] != probe2[i] {
			in.transitOff = i
			break
		}
	}
	if len(probe2) != in.msgLen || in.transitOff < 0 || in.transitOff+4 > in.msgLen ||
		!bytes.Equal(probe2[in.transitOff:in.transitOff+4], []byte{0x22, 0x22, 0x22, 0x22}) {
		return fmt.Errorf("cannot locate the transit hop in an encoded UPDATE")
	}
	in.bg = make([]byte, 0, tableSize*in.msgLen)
	for i, v := range picked {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{octets[v>>16], byte(v >> 8), byte(v), 0}), 24)
		msg, err := announce(p, genASN, transitBase, bgp.ASN(bgOriginBase+i%bgOrigins))
		if err != nil {
			return err
		}
		if len(msg) != in.msgLen {
			return fmt.Errorf("UPDATE for %v is %d bytes, want %d", p, len(msg), in.msgLen)
		}
		in.bg = append(in.bg, msg...)
	}
	in.warmN = tableSize
	return nil
}

// buildTorChurn lays out pacedVariants passes over the watchlist in a
// seeded order, each re-announcing every watched prefix with its
// legitimate origin behind a different transit hop. The first pass is
// the warm-up.
func (in *inputs) buildTorChurn(rng *rand.Rand) error {
	perm := rng.Perm(len(in.watchList))
	in.offs = []int{0}
	for v := 0; v < pacedVariants; v++ {
		for _, i := range perm {
			p := in.watchList[i]
			msg, err := announce(p, genASN, bgp.ASN(transitBase+v), in.watched[p])
			if err != nil {
				return err
			}
			in.bg = append(in.bg, msg...)
			in.offs = append(in.offs, len(in.bg))
		}
	}
	in.warmN = len(in.watchList)
	return nil
}
