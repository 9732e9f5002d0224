// Rebuild: the derivation-history payoff of §1.4 — "the UNIX Make
// facility requires the knowledge of the detailed tool execution
// sequence... to reconstruct the design object when one or more of its
// dependent objects are modified." Papyrus records that sequence
// automatically as a by-product of activity management; this example
// modifies a source specification and reconstructs exactly the stale
// derived object, contrasting with the VOV baseline's
// regenerate-everything retracing.
package main

import (
	"fmt"
	"log"

	"papyrus/internal/baseline"
	"papyrus/internal/cad"
	"papyrus/internal/cad/logic"
	"papyrus/internal/core"
	"papyrus/internal/oct"
)

func main() {
	sys, err := core.New(core.Config{Nodes: 2})
	if err != nil {
		log.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	_, err = sys.ImportObject("/spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)))
	must(err)
	th := sys.NewThread("demo", "u")
	_, err = sys.Invoke(th, "create-logic-description",
		map[string]string{"Spec": "/spec"},
		map[string]string{"Outlogic": "sh.logic"})
	must(err)
	_, err = sys.Invoke(th, "PLA-generation",
		map[string]string{"Inlogic": "sh.logic"},
		map[string]string{"Outcell": "sh.pla"})
	must(err)

	target, err := th.ResolveInput("sh.pla")
	must(err)
	stale, err := sys.OutOfDate(target)
	must(err)
	fmt.Printf("after the flow: %s out of date? %v\n", target, stale)

	// The designer edits the specification: a wider shifter.
	_, err = sys.ImportObject("/spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4)))
	must(err)
	stale, err = sys.OutOfDate(target)
	must(err)
	fmt.Printf("after editing /spec: %s out of date? %v\n", target, stale)

	fresh, err := sys.Rebuild(th, target)
	must(err)
	fmt.Printf("rebuilt: %s -> %s (old version untouched — single assignment)\n", target, fresh)
	obj, err := sys.Store.Get(fresh)
	must(err)
	fmt.Printf("regenerated object type: %s, size %d bytes\n", obj.Type, obj.Data.Size())

	// Contrast with VOV-style retracing: everything downstream re-runs.
	suite := cad.NewSuite()
	store := oct.NewStore()
	vov := baseline.NewVOV(suite, store)
	spec, _ := store.Put("spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)), "d")
	vov.Checkin("spec", spec)
	must(vov.Run("bdsyn", nil, []string{"spec"}, []string{"net"}))
	must(vov.Run("misII", nil, []string{"net"}, []string{"opt"}))
	must(vov.Run("espresso", nil, []string{"net"}, []string{"min"}))
	spec2, _ := store.Put("spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4)), "d")
	reruns, err := vov.Modify("spec", spec2)
	must(err)
	fmt.Printf("\nVOV baseline on the same edit: %d tool re-runs (all derived objects)\n", reruns)
	fmt.Println("Papyrus rebuilt only the one object asked for (demand-driven).")
}
