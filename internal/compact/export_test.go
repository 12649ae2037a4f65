package compact

import "reflect"

// HeldIR counts the IR pointers s holds: the operations of the
// dependence builder's last graph over its whole capacity, the
// builder's symbol table and the op-index map.
func (s *Scratch) HeldIR() int {
	bld := reflect.ValueOf(&s.ddg).Elem()
	n := bld.FieldByName("symID").Len() + len(s.opIdx)
	ops := bld.FieldByName("g").FieldByName("Ops")
	ops = ops.Slice(0, ops.Cap())
	for i := 0; i < ops.Len(); i++ {
		if !ops.Index(i).IsNil() {
			n++
		}
	}
	return n
}
