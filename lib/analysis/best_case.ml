(* The best-case bounds on the model's own constants; the horizon does
   not enter them. *)
let table m =
  Timebase.rational m ~horizon_factor:Params.default.Params.horizon_factor

let simple m = Rta.Rat.simple (table m)

let refined m ~jit = Rta.Rat.refined m (table m) ~jit
