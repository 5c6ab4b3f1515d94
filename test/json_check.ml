(* Alcotest-facing wrappers over the shared RFC-8259 checker
   (lib/jsonv): the tests only need "does this string parse as JSON",
   not a document model — but the parser itself lives in
   [Dyno_jsonv.Jsonv] so the [json_check] CLI can reuse it. *)

let check = Dyno_jsonv.Jsonv.check

let check_exn ~what s =
  match check s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s is not well-formed JSON: %s" what e

let check_jsonl_exn ~what s =
  String.split_on_char '\n' s
  |> List.filter (fun line -> line <> "")
  |> List.iteri (fun i line ->
         match check line with
         | Ok () -> ()
         | Error e ->
             Alcotest.failf "%s line %d is not well-formed JSON: %s" what i e)
