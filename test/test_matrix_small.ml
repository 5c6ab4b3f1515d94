(* The end-to-end matrix (see matrix.ml) in the small world. *)
let () =
  Alcotest.run "matrix-small" [ ("small world", Matrix.tests ~small:true ~groups:215) ]
