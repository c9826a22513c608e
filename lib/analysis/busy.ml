let fixpoint = Rta.Rat.fixpoint
