(* doc_check — keep the prose honest.

   Six classes of documentation rot this tool catches:

   1. Dead relative links: a [text](path) markdown link in README.md,
      DESIGN.md or docs/*.md whose target file no longer exists
      (renames and deletions silently strand links otherwise).

   2. Stale flag names: a `--flag` token mentioned in the docs that no
      longer matches any option actually declared in
      bin/verifyio_cli.ml (flags get renamed; prose doesn't).

   3. Stale subcommands: a `verifyio NAME`, $ verifyio NAME or
      verifyio_cli.exe -- NAME mention whose NAME is not in the CLI's
      `cmds` list (subcommands get deleted; examples don't).

   4. Stale failpoint sites: a SITE=POLICY spec (e.g.
      codec.read=fail@2) whose SITE is not in the `known_sites` registry
      of lib/vio_util/failpoint.ml (sites get deleted; specs don't).

   5. Stale odoc module references in lib/**/*.mli: a {!Lib.M...} whose
      module M has no .ml/.mli in library Lib's directory, or a bare
      {!M...} that names no module under lib/ and nothing its own file
      declares (modules get deleted; doc comments don't, and with odoc
      absent nothing else resolves them).

   6. Stale API references: a backticked `M.v` or `Lib.M.v` in README.md,
      DESIGN.md or docs/*.md whose module M has an .mli under lib/ that
      declares no value, type, exception, module, constructor or record
      field named v (functions get deleted or made private; prose
      doesn't).

   Run from anywhere with --root pointing at the workspace root. Exits
   non-zero with one line per problem; prints a one-line summary when
   clean. Wired into `dune runtest` via the @doc-check alias in
   tools/doc_check/dune. *)

let errors = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr errors;
      Printf.eprintf "doc-check: %s\n" msg)
    fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ---- markdown files under check ---------------------------------- *)

let markdown_files root =
  let docs_dir = Filename.concat root "docs" in
  let in_docs =
    if Sys.file_exists docs_dir && Sys.is_directory docs_dir then
      Sys.readdir docs_dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".md")
      |> List.map (Filename.concat docs_dir)
      |> List.sort compare
    else []
  in
  let at_root =
    [ "README.md"; "DESIGN.md" ]
    |> List.map (Filename.concat root)
    |> List.filter Sys.file_exists
  in
  at_root @ in_docs

(* ---- 1. dead relative links -------------------------------------- *)

let is_external target =
  let starts p = String.length target >= String.length p
                 && String.sub target 0 (String.length p) = p in
  starts "http://" || starts "https://" || starts "mailto:"
  || (String.length target > 0 && target.[0] = '#')

(* Extract every "](target)" occurrence. Good enough for our docs: no
   nested parens in link targets, no reference-style links. *)
let links_of content =
  let acc = ref [] in
  let n = String.length content in
  let i = ref 0 in
  while !i < n - 1 do
    if content.[!i] = ']' && content.[!i + 1] = '(' then begin
      (match String.index_from_opt content (!i + 2) ')' with
      | Some close ->
          acc := String.sub content (!i + 2) (close - !i - 2) :: !acc;
          i := close
      | None -> ())
    end;
    incr i
  done;
  List.rev !acc

(* 1-based line of byte [pos], for clickable messages. *)
let line_at content pos =
  let line = ref 1 in
  String.iteri (fun i c -> if i < pos && c = '\n' then incr line) content;
  !line

let line_of content target =
  (* the line of the first occurrence *)
  match
    Str.search_forward (Str.regexp_string ("(" ^ target ^ ")")) content 0
  with
  | pos -> line_at content pos
  | exception Not_found -> 0

let check_links md content =
  let checked = ref 0 in
  links_of content
  |> List.iter (fun raw ->
         if not (is_external raw) then begin
           (* strip a trailing #anchor; we only verify file existence *)
           let target =
             match String.index_opt raw '#' with
             | Some 0 | None -> raw
             | Some i -> String.sub raw 0 i
           in
           if target <> "" then begin
             incr checked;
             let resolved = Filename.concat (Filename.dirname md) target in
             if not (Sys.file_exists resolved) then
               fail "%s:%d: dead link (%s) — %s does not exist" md
                 (line_of content raw) raw resolved
           end
         end);
  !checked

(* Call [f] with the start of every match of [re] in [s], while
   [Str.matched_group] still refers to that match; return the count. *)
let each_match re s f =
  let rec go from n =
    match Str.search_forward re s from with
    | start ->
        f start;
        go (start + 1) (n + 1)
    | exception Not_found -> n
  in
  go 0 0

(* ---- 2. stale flag names ----------------------------------------- *)

(* Every long option the CLI actually declares: the quoted names inside
   each cmdliner `info [ ... ]` list in bin/verifyio_cli.ml, plus the
   two options cmdliner itself adds to every command. *)
let declared_flags cli_source =
  let flags = Hashtbl.create 64 in
  List.iter (fun b -> Hashtbl.replace flags b ()) [ "help"; "version" ];
  let info_re = Str.regexp "info[ \t\n]*\\[\\([^]]*\\)\\]" in
  let name_re = Str.regexp "\"\\([^\"]*\\)\"" in
  ignore
    (each_match info_re cli_source (fun _ ->
         let body = Str.matched_group 1 cli_source in
         ignore
           (each_match name_re body (fun _ ->
                Hashtbl.replace flags (Str.matched_group 1 body) ()))));
  flags

let flag_re = Str.regexp "--\\([a-zA-Z][a-zA-Z0-9-]*\\)"

let check_flags flags md content =
  each_match flag_re content (fun _ ->
      let name = Str.matched_group 1 content in
      if not (Hashtbl.mem flags name) then
        fail "%s: stale flag --%s — not declared in bin/verifyio_cli.ml" md
          name)

(* ---- 3. stale subcommands ---------------------------------------- *)

(* The subcommand names the CLI registers: the first string literal after
   each `cmd_of` that follows `let cmds =`. *)
let declared_subcommands cli_source =
  let names = Hashtbl.create 16 in
  (match Str.search_forward (Str.regexp_string "let cmds =") cli_source 0 with
  | start ->
      let list = Str.string_after cli_source start in
      let name_re = Str.regexp "cmd_of[^\"]*\"\\([^\"]*\\)\"" in
      ignore
        (each_match name_re list (fun _ ->
             Hashtbl.replace names (Str.matched_group 1 list) ()))
  | exception Not_found -> ());
  names

let subcommand_re =
  Str.regexp
    "\\(`verifyio \\|\\$ verifyio \\|verifyio_cli\\.exe -- \\)\\([a-z][a-z0-9-]*\\)"

let check_subcommands cmds md content =
  each_match subcommand_re content (fun start ->
      let name = Str.matched_group 2 content in
      if not (Hashtbl.mem cmds name) then
        fail "%s:%d: stale subcommand %s — not in the cmds list of \
              bin/verifyio_cli.ml" md (line_at content start) name)

(* ---- 4. stale failpoint sites ------------------------------------ *)

(* The site names the fabric registers: the first string literal of each
   pair in the `known_sites` list of lib/vio_util/failpoint.ml. *)
let declared_sites registry_source =
  let sites = Hashtbl.create 16 in
  (match
     Str.search_forward (Str.regexp_string "let known_sites =")
       registry_source 0
   with
  | start ->
      let list = Str.string_after registry_source start in
      let list =
        match String.index_opt list ']' with
        | Some close -> String.sub list 0 close
        | None -> list
      in
      let name_re = Str.regexp "(\"\\([^\"]*\\)\"," in
      ignore
        (each_match name_re list (fun _ ->
             Hashtbl.replace sites (Str.matched_group 1 list) ()))
  | exception Not_found -> ());
  sites

(* A dotted site name, '=', then a policy keyword of the spec grammar. *)
let spec_re =
  Str.regexp
    "\\b\\([a-z][a-z0-9_]*\\(\\.[a-z][a-z0-9_]*\\)+\\)=\\(off\\|fail\\|prob\\|delay\\|short\\|bitflip\\)"

let check_specs sites md content =
  each_match spec_re content (fun start ->
      let name = Str.matched_group 1 content in
      if not (Hashtbl.mem sites name) then
        fail "%s:%d: stale failpoint site %s — not in the registry of \
              lib/vio_util/failpoint.ml" md (line_at content start) name)

(* ---- 5. stale odoc module references ------------------------------ *)

type library = {
  dir : string;  (* lib/<dir> *)
  wrapper : string option;  (* the dune (name ...), capitalized *)
  modules : string list;  (* capitalized basenames of its .ml/.mli files *)
}

let libraries root =
  let lib = Filename.concat root "lib" in
  if not (Sys.file_exists lib && Sys.is_directory lib) then []
  else
    Sys.readdir lib |> Array.to_list |> List.sort compare
    |> List.filter (fun d -> Sys.is_directory (Filename.concat lib d))
    |> List.map (fun d ->
           let dir = Filename.concat lib d in
           let dune = Filename.concat dir "dune" in
           let wrapper =
             if not (Sys.file_exists dune) then None
             else
               let src = read_file dune in
               match
                 Str.search_forward
                   (Str.regexp "(name[ \t\n]+\\([a-z][a-z0-9_]*\\))")
                   src 0
               with
               | _ -> Some (String.capitalize_ascii (Str.matched_group 1 src))
               | exception Not_found -> None
           in
           let modules =
             Sys.readdir dir |> Array.to_list
             |> List.filter (fun f ->
                    Filename.check_suffix f ".ml"
                    || Filename.check_suffix f ".mli")
             |> List.map (fun f ->
                    String.capitalize_ascii (Filename.remove_extension f))
             |> List.sort_uniq compare
           in
           { dir; wrapper; modules })

(* An exception, module (type) or constructor of that name in [src]. *)
let declares src name =
  match
    Str.search_forward
      (Str.regexp
         ("\\(exception\\|module\\|type\\|[|=]\\)[ \t\n]+" ^ name
        ^ "\\b"))
      src 0
  with
  | _ -> true
  | exception Not_found -> false

(* {!path}, {!kind:path} or {!!path}: the path is a dotted identifier. *)
let odoc_ref_re =
  Str.regexp "{!+\\([a-z]+:\\)?\\([A-Za-z_][A-Za-z0-9_'.]*\\)"

let check_odoc_refs libs =
  let wrappers =
    List.filter_map (fun l -> Option.map (fun w -> (w, l)) l.wrapper) libs
  in
  let all_modules = List.concat_map (fun l -> l.modules) libs in
  let capitalized s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z' in
  let checked = ref 0 in
  List.iter
    (fun l ->
      Sys.readdir l.dir |> Array.to_list |> List.sort compare
      |> List.filter (fun f -> Filename.check_suffix f ".mli")
      |> List.iter (fun f ->
             let mli = Filename.concat l.dir f in
             let src = read_file mli in
             ignore
               (each_match odoc_ref_re src (fun start ->
                   let path = Str.matched_group 2 src in
                   match String.split_on_char '.' path with
                   | first :: rest when capitalized first -> (
                     incr checked;
                     let stale why =
                       fail "%s:%d: stale module reference {!%s} — %s" mli
                         (line_at src start) path why
                     in
                     match (List.assoc_opt first wrappers, rest) with
                     | Some lib, m :: _ when capitalized m ->
                       if not (List.mem m lib.modules) then
                         stale
                           (Printf.sprintf "%s has no %s.ml or %s.mli" lib.dir
                              (String.uncapitalize_ascii m)
                              (String.uncapitalize_ascii m))
                     | Some _, _ -> ()
                     | None, _ ->
                       if
                         not
                           (List.mem first all_modules || declares src first)
                       then
                         stale
                           (Printf.sprintf
                              "no module %s under lib/, and the file \
                               declares none"
                              first))
                   | _ -> ()))))
    libs;
  !checked

(* ---- 6. stale API references -------------------------------------- *)

(* A value, type, exception, module, constructor or record field named
   [name] in the interface source [src]. Declarations are not scoped to
   submodules: a name declared anywhere in the file counts. *)
let declares_item src name =
  let found re =
    match Str.search_forward (Str.regexp re) src 0 with
    | _ -> true
    | exception Not_found -> false
  in
  let capitalized = name.[0] >= 'A' && name.[0] <= 'Z' in
  if capitalized then declares src name
  else
    found ("\\b\\(val\\|external\\)[ \t\n]+" ^ name ^ "\\b")
    || found
         ("\\b\\(type\\|and\\)[ \t\n]+\\(\\('[a-z_]+\\|([^)]*)\\)[ \t\n]+\\)?"
        ^ name ^ "\\b")
    || found
         ("\\([{;]\\|^\\)[ \t\n]*\\(mutable[ \t\n]+\\)?" ^ name
        ^ "[ \t\n]*:")

(* A backticked span, and a dotted path inside it that starts with a
   capitalized module name. *)
let span_re = Str.regexp "`\\([^`\n]+\\)`"

let path_re =
  Str.regexp "[A-Z][A-Za-z0-9_]*\\(\\.[A-Za-z_][A-Za-z0-9_']*\\)+"

(* Every `M.v` or `Lib.M.v` in a backticked span of [content] whose
   module M has an .mli under lib/ (in library Lib's directory, when Lib
   names one) that declares nothing named v. Paths through modules
   without an interface (the standard library, aliases) are not
   checked. *)
let check_api_refs libs md content =
  let wrappers =
    List.filter_map (fun l -> Option.map (fun w -> (w, l)) l.wrapper) libs
  in
  let interfaces libs m =
    List.filter_map
      (fun l ->
        let mli =
          Filename.concat l.dir (String.uncapitalize_ascii m ^ ".mli")
        in
        if Sys.file_exists mli then Some mli else None)
      libs
  in
  let checked = ref 0 in
  let check start path =
    let target =
      match String.split_on_char '.' path with
      | lib :: m :: v :: _ when List.mem_assoc lib wrappers ->
        Some (interfaces [ List.assoc lib wrappers ] m, m, v)
      | lib :: _ when List.mem_assoc lib wrappers -> None
      | m :: v :: _ -> Some (interfaces libs m, m, v)
      | _ -> None
    in
    match target with
    | None | Some ([], _, _) -> ()
    | Some (mlis, m, v) ->
      incr checked;
      if not (List.exists (fun mli -> declares_item (read_file mli) v) mlis)
      then
        fail "%s:%d: stale API reference `%s` — %s declares no %s.%s" md
          (line_at content start) path (String.concat " or " mlis) m v
  in
  let rec spans from =
    match Str.search_forward span_re content from with
    | exception Not_found -> ()
    | start ->
      let span = Str.matched_group 1 content and next = Str.match_end () in
      let rec paths from =
        match Str.search_forward path_re span from with
        | exception Not_found -> ()
        | p ->
          let path = Str.matched_string span and after = Str.match_end () in
          if p = 0 || not (String.contains "._" span.[p - 1]) then
            check start path;
          paths after
      in
      paths 0;
      spans next
  in
  spans 0;
  !checked

(* ---- driver ------------------------------------------------------- *)

let () =
  let root = ref "." in
  let spec = [ ("--root", Arg.Set_string root, "DIR workspace root") ] in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "doc_check --root DIR";
  let cli = Filename.concat !root "bin/verifyio_cli.ml" in
  if not (Sys.file_exists cli) then begin
    fail "cannot find %s — wrong --root?" cli;
    exit 1
  end;
  let cli_source = read_file cli in
  let flags = declared_flags cli_source in
  let cmds = declared_subcommands cli_source in
  if Hashtbl.length cmds = 0 then fail "no cmds list found in %s" cli;
  let registry = Filename.concat !root "lib/vio_util/failpoint.ml" in
  let sites =
    if Sys.file_exists registry then declared_sites (read_file registry)
    else Hashtbl.create 0
  in
  if Hashtbl.length sites = 0 then
    fail "no known_sites registry found in %s" registry;
  let mds = markdown_files !root in
  if mds = [] then fail "no markdown files found under %s" !root;
  let libs = libraries !root in
  let links = ref 0 and mentions = ref 0 and uses = ref 0 and specs = ref 0 in
  let apis = ref 0 in
  List.iter
    (fun md ->
      let content = read_file md in
      links := !links + check_links md content;
      mentions := !mentions + check_flags flags md content;
      uses := !uses + check_subcommands cmds md content;
      specs := !specs + check_specs sites md content;
      apis := !apis + check_api_refs libs md content)
    mds;
  let refs = check_odoc_refs libs in
  if !errors > 0 then begin
    Printf.eprintf "doc-check: %d problem(s)\n" !errors;
    exit 1
  end;
  Printf.printf
    "doc-check: %d files, %d relative links, %d flag mentions, %d \
     subcommand mentions, %d failpoint specs%s%s — all good\n"
    (List.length mds) !links !mentions !uses !specs
    (if !apis > 0 then Printf.sprintf ", %d API references" !apis else "")
    (if refs > 0 then Printf.sprintf ", %d odoc module references" refs
     else "")
