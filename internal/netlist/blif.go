package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"turbosyn/internal/logic"
)

// ReadBLIF parses the SIS-era BLIF subset (.model, .inputs, .outputs,
// .names, .latch, .end) into a retiming graph. Explicit latches become edge
// weights: a connection passing through w latches becomes an edge of weight
// w from the latch chain's combinational driver. Latch initial values are
// not preserved (the synthesis flow assumes reset-to-zero; see DESIGN.md).
func ReadBLIF(r io.Reader) (*Circuit, error) {
	lines, err := logicalLines(r)
	if err != nil {
		return nil, err
	}
	type namesDef struct {
		signals []string // inputs..., output last
		cover   []string // cube lines
	}
	type latchDef struct {
		in, out string
	}
	var (
		model   string
		inputs  []string
		outputs []string
		names   []namesDef
		latches []latchDef
	)
	for i := 0; i < len(lines); i++ {
		fields := strings.Fields(lines[i])
		if len(fields) == 0 {
			continue
		}
		// A token can end in a backslash only when blanks followed it. The
		// writer could put such a name at the end of a line, where the
		// backslash would continue the line, so it is rejected here.
		for _, f := range fields {
			if strings.HasSuffix(f, "\\") {
				return nil, fmt.Errorf("blif: line %d: name %q ends with a backslash", i+1, f)
			}
		}
		switch fields[0] {
		case ".model":
			if len(fields) > 1 {
				model = fields[1]
			}
		case ".inputs":
			inputs = append(inputs, fields[1:]...)
		case ".outputs":
			outputs = append(outputs, fields[1:]...)
		case ".latch":
			if len(fields) < 3 {
				return nil, fmt.Errorf("blif: line %d: .latch needs input and output", i+1)
			}
			// .latch input output [type [control]] [init]; only the first
			// two fields matter here.
			latches = append(latches, latchDef{in: fields[1], out: fields[2]})
		case ".names":
			def := namesDef{signals: fields[1:]}
			if len(def.signals) == 0 {
				return nil, fmt.Errorf("blif: line %d: .names needs an output", i+1)
			}
			for i+1 < len(lines) {
				next := strings.TrimSpace(lines[i+1])
				if strings.HasPrefix(next, ".") {
					break
				}
				i++
				if next != "" { // blank or comment-only lines inside a cover
					def.cover = append(def.cover, next)
				}
			}
			names = append(names, def)
		case ".end":
			// Single-model files only; stop here.
			i = len(lines)
		case ".exdc", ".wire_load_slope", ".default_input_arrival":
			// Ignored extensions.
		default:
			if strings.HasPrefix(fields[0], ".") {
				return nil, fmt.Errorf("blif: line %d: unsupported construct %q", i+1, fields[0])
			}
			return nil, fmt.Errorf("blif: line %d: cube line outside .names", i+1)
		}
	}
	if model == "" {
		model = "top"
	}

	c := NewCircuit(model)
	// Signal space: driver[s] = node id of the combinational driver, or -1
	// when s is a latch output (resolved through latchIn).
	driver := make(map[string]int)
	latchIn := make(map[string]string)
	for _, l := range latches {
		if _, dup := latchIn[l.out]; dup {
			return nil, fmt.Errorf("blif: latch output %q defined twice", l.out)
		}
		latchIn[l.out] = l.in
	}
	for _, in := range inputs {
		if _, dup := driver[in]; dup {
			return nil, fmt.Errorf("blif: input %q defined twice", in)
		}
		if _, isLatch := latchIn[in]; isLatch {
			return nil, fmt.Errorf("blif: signal %q is both an input and a latch output", in)
		}
		driver[in] = c.AddPI(in)
	}

	// Create gate nodes first (fanins filled in a second pass so that
	// definition order doesn't matter).
	type pending struct {
		id  int
		def namesDef
	}
	var pend []pending
	for _, def := range names {
		out := def.signals[len(def.signals)-1]
		if _, dup := driver[out]; dup {
			return nil, fmt.Errorf("blif: signal %q defined twice", out)
		}
		if _, isLatch := latchIn[out]; isLatch {
			return nil, fmt.Errorf("blif: signal %q is both .names output and latch output", out)
		}
		nin := len(def.signals) - 1
		if nin > logic.MaxVars {
			return nil, fmt.Errorf("blif: gate %q has %d inputs; max %d (decompose first)",
				out, nin, logic.MaxVars)
		}
		fn, err := coverToTT(nin, def.cover)
		if err != nil {
			return nil, fmt.Errorf("blif: gate %q: %v", out, err)
		}
		id := c.addNode(&Node{Kind: Gate, Name: out, Func: fn})
		driver[out] = id
		pend = append(pend, pending{id: id, def: def})
	}

	// resolve returns the combinational driver of signal s and the number of
	// latches crossed. It walks the latch chain iteratively — malformed (or
	// adversarial) inputs can chain thousands of latches, which must not
	// translate into recursion depth — and bounds the walk by the latch
	// count, so a latch cycle with no combinational driver is reported
	// instead of looping.
	resolve := func(s string) (int, int, error) {
		cur, w := s, 0
		for hops := 0; ; hops++ {
			if id, ok := driver[cur]; ok {
				return id, w, nil
			}
			in, ok := latchIn[cur]
			if !ok {
				return 0, 0, fmt.Errorf("undefined signal %q", cur)
			}
			if hops >= len(latches) {
				return 0, 0, fmt.Errorf("latch cycle through %q", s)
			}
			cur = in
			w++
		}
	}

	for _, p := range pend {
		ins := p.def.signals[:len(p.def.signals)-1]
		fanins := make([]Fanin, len(ins))
		for k, s := range ins {
			id, w, err := resolve(s)
			if err != nil {
				return nil, fmt.Errorf("blif: gate %q: %v", p.def.signals[len(p.def.signals)-1], err)
			}
			fanins[k] = Fanin{From: id, Weight: w}
		}
		c.Nodes[p.id].Fanins = fanins
	}
	for _, out := range outputs {
		id, w, err := resolve(out)
		if err != nil {
			return nil, fmt.Errorf("blif: output %q: %v", out, err)
		}
		poName := out + "$po"
		for c.IDByName(poName) != -1 {
			poName += "'"
		}
		c.AddPO(poName, id, w)
	}
	c.InvalidateCaches()
	if err := c.Check(); err != nil {
		return nil, err
	}
	return c, nil
}

// logicalLines reads r, strips comments, and joins '\'-continued lines.
func logicalLines(r io.Reader) ([]string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []string
	cont := ""
	for sc.Scan() {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if strings.HasSuffix(line, "\\") {
			cont += strings.TrimSuffix(line, "\\") + " "
			continue
		}
		out = append(out, cont+line)
		cont = ""
	}
	if cont != "" {
		out = append(out, cont)
	}
	return out, sc.Err()
}

// coverToTT converts a BLIF single-output cover to a truth table.
func coverToTT(nin int, cover []string) (*logic.TT, error) {
	if len(cover) == 0 {
		// Empty cover = constant 0.
		return logic.Const(nin, false), nil
	}
	on := logic.Const(nin, false)
	polarity := byte(0)
	for _, line := range cover {
		fields := strings.Fields(line)
		var cube, val string
		switch {
		case nin == 0 && len(fields) == 1:
			cube, val = "", fields[0]
		case len(fields) == 2:
			cube, val = fields[0], fields[1]
		default:
			return nil, fmt.Errorf("bad cover line %q", line)
		}
		if len(cube) != nin {
			return nil, fmt.Errorf("cube %q has %d literals, want %d", cube, len(cube), nin)
		}
		if len(val) != 1 || (val[0] != '0' && val[0] != '1') {
			return nil, fmt.Errorf("bad output value %q", val)
		}
		if polarity == 0 {
			polarity = val[0]
		} else if polarity != val[0] {
			return nil, fmt.Errorf("mixed-polarity cover")
		}
		term := logic.Const(nin, true)
		for j := 0; j < nin; j++ {
			switch cube[j] {
			case '1':
				term.And(term, logic.Var(nin, j))
			case '0':
				x := logic.Var(nin, j)
				term.And(term, x.Not(x))
			case '-':
			default:
				return nil, fmt.Errorf("bad cube character %q in %q", cube[j], cube)
			}
		}
		on.Or(on, term)
	}
	if polarity == '0' {
		on.Not(on)
	}
	return on, nil
}

// WriteBLIF writes the circuit in BLIF format. Edge weights are expanded
// into shared latch chains: each node with a weighted fanout gets one latch
// chain of the maximum needed depth, and consumers tap the chain at their
// weight.
func WriteBLIF(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	name := c.Name
	if name == "" {
		name = "top"
	}
	fmt.Fprintf(bw, ".model %s\n", name)

	// Assign signal names to PIs and gates first; POs are handled below
	// because an output usually shares its driver's signal.
	sig := make([]string, len(c.Nodes))
	used := map[string]bool{}
	for _, n := range c.Nodes {
		if n.Kind == PO {
			continue
		}
		s := n.Name
		if s == "" || used[s] {
			s = fmt.Sprintf("n%d", n.ID)
		}
		used[s] = true
		sig[n.ID] = s
	}

	// Latch chains: tap(u, w) is the signal for u delayed by w latches.
	maxW := make(map[int]int)
	for _, n := range c.Nodes {
		for _, f := range n.Fanins {
			if f.Weight > maxW[f.From] {
				maxW[f.From] = f.Weight
			}
		}
	}
	// Fix all chain signal names up front so later name claims (PO names)
	// cannot change what tap returns.
	tapName := make(map[[2]int]string)
	for u, mw := range maxW {
		for w := 1; w <= mw; w++ {
			s := fmt.Sprintf("%s_ff%d", sig[u], w)
			for used[s] {
				s += "$l"
			}
			used[s] = true
			tapName[[2]int{u, w}] = s
		}
	}
	tap := func(u, w int) string {
		if w == 0 {
			return sig[u]
		}
		return tapName[[2]int{u, w}]
	}

	// Output signals: reuse the tapped driver signal when the PO's own name
	// matches or is unavailable, otherwise emit a buffer under the PO name.
	type buffer struct{ src, dst string }
	var buffers []buffer
	outSig := make([]string, len(c.POs))
	for i, id := range c.POs {
		n := c.Nodes[id]
		f := n.Fanins[0]
		src := tap(f.From, f.Weight)
		desired := strings.TrimSuffix(n.Name, "$po")
		switch {
		case desired == src:
			outSig[i] = src
		case desired != "" && !used[desired]:
			used[desired] = true
			outSig[i] = desired
			buffers = append(buffers, buffer{src: src, dst: desired})
		default:
			outSig[i] = src
		}
		sig[id] = outSig[i]
	}

	fmt.Fprint(bw, ".inputs")
	for _, id := range c.PIs {
		fmt.Fprintf(bw, " %s", sig[id])
	}
	fmt.Fprintln(bw)
	fmt.Fprint(bw, ".outputs")
	for _, s := range outSig {
		fmt.Fprintf(bw, " %s", s)
	}
	fmt.Fprintln(bw)

	var chained []int
	for u := range maxW {
		chained = append(chained, u)
	}
	sort.Ints(chained)
	for _, u := range chained {
		for w := 1; w <= maxW[u]; w++ {
			fmt.Fprintf(bw, ".latch %s %s 0\n", tap(u, w-1), tap(u, w))
		}
	}

	for _, n := range c.Nodes {
		if n.Kind != Gate {
			continue
		}
		fmt.Fprint(bw, ".names")
		for _, f := range n.Fanins {
			fmt.Fprintf(bw, " %s", tap(f.From, f.Weight))
		}
		fmt.Fprintf(bw, " %s\n", sig[n.ID])
		writeCover(bw, n.Func)
	}
	for _, b := range buffers {
		fmt.Fprintf(bw, ".names %s %s\n1 1\n", b.src, b.dst)
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// writeCover emits fn as a minterm cover (or its complement, whichever is
// smaller; a constant gets the canonical empty/"1" form).
func writeCover(w io.Writer, fn *logic.TT) {
	nin := fn.NumVars()
	ones := fn.CountOnes()
	if ones == 0 {
		return // empty cover = constant 0
	}
	if ones == fn.NumBits() {
		if nin == 0 {
			fmt.Fprintln(w, "1")
		} else {
			fmt.Fprintf(w, "%s 1\n", strings.Repeat("-", nin))
		}
		return
	}
	val, want := byte('1'), true
	if ones > fn.NumBits()/2 {
		val, want = '0', false
	}
	for i := 0; i < fn.NumBits(); i++ {
		if fn.Bit(i) != want {
			continue
		}
		cube := make([]byte, nin)
		for j := 0; j < nin; j++ {
			if i&(1<<uint(j)) != 0 {
				cube[j] = '1'
			} else {
				cube[j] = '0'
			}
		}
		fmt.Fprintf(w, "%s %c\n", cube, val)
	}
}
