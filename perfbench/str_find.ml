(* Substring search, for the few places that splice or inspect rendered
   lines without parsing them. *)

let index s sub from =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then None
    else if String.unsafe_get s i = String.unsafe_get sub 0 && String.sub s i k = sub then
      Some i
    else go (i + 1)
  in
  if k = 0 then Some from else go from
