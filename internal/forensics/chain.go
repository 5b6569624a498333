package forensics

import "strconv"

// details accumulates the detail text of a report's chain links in one
// buffer. Each link's detail is a run of space-separated key=value
// fields; start marks where the current link's run begins. The
// formatting matches fmt's %d, %.Nf and %g verbs byte for byte
// (TestDetailsMatchSprintf), without fmt's boxing and per-call string.
type details struct {
	b     []byte
	start int
}

// open begins a new link's detail run.
func (d *details) open() { d.start = len(d.b) }

// key appends "key=", preceded by a space unless it opens the run.
func (d *details) key(k string) {
	if len(d.b) > d.start {
		d.b = append(d.b, ' ')
	}
	d.b = append(d.b, k...)
	d.b = append(d.b, '=')
}

// num appends key=v, as %d formats v.
//
//farm:hotpath chain detail formatting, one call per field
func (d *details) num(k string, v int64) *details {
	d.key(k)
	d.b = strconv.AppendInt(d.b, v, 10)
	return d
}

// fixed appends key=v with prec decimals, as %.<prec>f formats v.
//
//farm:hotpath chain detail formatting, one call per field
func (d *details) fixed(k string, v float64, prec int) *details {
	d.key(k)
	d.b = strconv.AppendFloat(d.b, v, 'f', prec, 64)
	return d
}

// general appends key=v, as %g formats v.
//
//farm:hotpath chain detail formatting, one call per field
func (d *details) general(k string, v float64) *details {
	d.key(k)
	d.b = strconv.AppendFloat(d.b, v, 'g', -1, 64)
	return d
}

// word appends a bare word.
//
//farm:hotpath chain detail formatting, one call per field
func (d *details) word(w string) *details {
	if len(d.b) > d.start {
		d.b = append(d.b, ' ')
	}
	d.b = append(d.b, w...)
	return d
}

// extent is the half-open range [lo, hi) of a buffer: one link's detail
// in the details buffer, or one postmortem's run of the link array.
type extent struct{ lo, hi int32 }

// chains carves every postmortem chain of one report from one link
// array, and every detail string from one string. Links are appended to
// links, a postmortem's chain is the run of links appended while it was
// built, and seal hands the runs out once the array stops growing.
// Postmortems may be built in any order; each run is filed under its
// postmortem's slot.
type chains struct {
	links []ChainLink
	// detail[i] is where links[i]'s detail lies in text.
	detail []extent
	text   details
	// runs holds each postmortem's run of links, by report slot.
	runs []extent
	// from is where the chain being built begins in links.
	from int
}

// reset starts the chains of a new report. The link array is the
// report's own, so it is made anew (with room for hint links); the
// rest is scratch and is reused.
func (c *chains) reset(hint int) {
	c.links = make([]ChainLink, 0, hint)
	c.detail = c.detail[:0]
	c.text.b, c.text.start = c.text.b[:0], 0
	c.runs = c.runs[:0]
	c.from = 0
}

// link appends a link at time t of the given kind to the chain being
// built and returns its detail buffer, open for fields. The detail ends
// at the next link, at finish, or at seal.
//
//farm:hotpath one call per chain link
func (c *chains) link(t float64, kind string) *details {
	c.closeDetail()
	c.text.open()
	c.links = append(c.links, ChainLink{T: t, Kind: kind})
	n := int32(len(c.text.b))
	c.detail = append(c.detail, extent{n, n})
	return &c.text
}

// closeDetail ends the last link's detail where the buffer ends now.
func (c *chains) closeDetail() {
	if len(c.detail) > c.from {
		c.detail[len(c.detail)-1].hi = int32(len(c.text.b))
	}
}

// finish ends the chain being built for the postmortem in slot seq: it
// time-sorts its links (they arrive near-sorted, so an insertion sort is
// cheap, and being stable it keeps ties in append order), caps them at
// maxChain and records the run for seal.
//
//farm:hotpath one call per postmortem
func (c *chains) finish(seq int) {
	c.closeDetail()
	links, detail := c.links[c.from:], c.detail[c.from:]
	for i := 1; i < len(links); i++ {
		for j := i; j > 0 && links[j].T < links[j-1].T; j-- {
			links[j], links[j-1] = links[j-1], links[j]
			detail[j], detail[j-1] = detail[j-1], detail[j]
		}
	}
	end := c.from + min(len(links), maxChain)
	c.links, c.detail = c.links[:end], c.detail[:end]
	c.runs = grow(c.runs, seq)
	c.runs[seq] = extent{int32(c.from), int32(end)}
	c.from = end
}

// seal sets every link's detail from one string and gives each
// postmortem its chain: posts[i] gets the run filed under slot i.
func (c *chains) seal(posts []Postmortem) {
	text := string(c.text.b)
	for i, s := range c.detail {
		c.links[i].Detail = text[s.lo:s.hi]
	}
	for i, r := range c.runs {
		if r.hi > r.lo {
			posts[i].Chain = c.links[r.lo:r.hi:r.hi]
		}
	}
}
