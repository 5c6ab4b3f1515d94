(* The end-to-end matrix (see matrix.ml) in the world of [Fixture.base]. *)
let () =
  Alcotest.run "matrix" [ ("base world", Matrix.tests ~small:false ~groups:215) ]
