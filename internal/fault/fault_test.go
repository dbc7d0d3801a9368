package fault

import "testing"

func TestNilInjectorIsHealthy(t *testing.T) {
	var inj *Injector
	if inj.NodeDown("any", 0) {
		t.Fatal("nil injector reported a node down")
	}
	if inj.Link("any") != nil {
		t.Fatal("nil injector returned a link injector")
	}
	if inj.NodeUpAt("any", 7) != 7 {
		t.Fatal("nil injector delayed a node")
	}
	var li *LinkInjector
	if li.Drop() {
		t.Fatal("nil link injector dropped a packet")
	}
	if li.Stats() != (LinkStats{}) {
		t.Fatal("nil link injector has stats")
	}
}

func TestEmptyPlan(t *testing.T) {
	if New(Plan{}).Link("l") != nil {
		t.Fatal("zero plan built a link injector")
	}
	p := Plan{Links: []LinkRule{{Link: "l"}}} // zero drop rule
	if New(p).Link("l") != nil {
		t.Fatal("a zero drop rule must not allocate an injector")
	}
	p.Links[0].Drop = 0.5
	if New(p).Link("l") == nil {
		t.Fatal("drop rule ignored")
	}
}

func TestDecisionRatesRoughlyMatch(t *testing.T) {
	li := New(Plan{Seed: 1, Links: []LinkRule{{Link: "l", Drop: 0.2}}}).Link("l")
	if li == nil {
		t.Fatal("no injector for configured link")
	}
	const n = 20000
	for i := 0; i < n; i++ {
		li.Drop()
	}
	st := li.Stats()
	if st.Packets != n {
		t.Fatalf("packets=%d", st.Packets)
	}
	if f := float64(st.Drops) / n; f < 0.17 || f > 0.23 {
		t.Fatalf("drop rate %.3f, want ~0.2", f)
	}
}

func TestDeterministicAcrossInstantiations(t *testing.T) {
	plan := Plan{Seed: 99, Links: []LinkRule{
		{Link: "a", Drop: 0.3},
		{Link: "b", Drop: 0.3},
	}}
	seq := func(link string, extra bool) []bool {
		p := plan
		if extra {
			// An unrelated extra rule must not shift link streams.
			p.Links = append([]LinkRule{{Link: "z", Drop: 0.5}}, p.Links...)
		}
		li := New(p).Link(link)
		out := make([]bool, 200)
		for i := range out {
			out[i] = li.Drop()
		}
		return out
	}
	a1, a2 := seq("a", false), seq("a", true)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("link a stream diverged at %d with unrelated rule present", i)
		}
	}
	// Same seed, different link name => different stream.
	b := seq("b", false)
	same := 0
	for i := range a1 {
		if a1[i] == b[i] {
			same++
		}
	}
	if same == len(a1) {
		t.Fatal("links a and b share a stream")
	}
}

func TestNodeWindows(t *testing.T) {
	inj := New(Plan{Nodes: []Window{
		{Node: "r1", From: 100, To: 200},
		{Node: "r1", From: 150, To: 300},
		{Node: "r2", From: 50, To: 60},
	}})
	if inj.NodeDown("r1", 99) || !inj.NodeDown("r1", 100) || !inj.NodeDown("r1", 199) {
		t.Fatal("first window boundaries wrong")
	}
	if !inj.NodeDown("r1", 250) || inj.NodeDown("r1", 300) {
		t.Fatal("overlapping window boundaries wrong")
	}
	if inj.NodeDown("r3", 150) {
		t.Fatal("unlisted node down")
	}
	// NodeUpAt walks chained windows.
	if up := inj.NodeUpAt("r1", 120); up != 300 {
		t.Fatalf("NodeUpAt=%v, want 300 (chained windows)", up)
	}
	if up := inj.NodeUpAt("r2", 70); up != 70 {
		t.Fatalf("NodeUpAt=%v for healthy node", up)
	}
}
