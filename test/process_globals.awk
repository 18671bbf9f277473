# Lists every top-level binding in the given .ml files whose value is
# mutable state created once per process: a ref, a Hashtbl, Queue,
# Buffer or Atomic, or a [create ()] of a module's own state. One line
# per binding, "Module.name", sorted by the caller. A binding whose
# value starts on the next line is joined to it first.
#
#   awk -f process_globals.awk lib/*/*.ml | sort

FNR == 1 { held = "" }

{
  line = held == "" ? $0 : held " " $0
  held = ""
}

line ~ /^let [a-z_0-9']+( *:[^=]*)? *= *$/ {
  held = line
  next
}

line ~ /^let [a-z_0-9']+( *:[^=]*)? *= *(ref |Hashtbl\.create|Queue\.create|Buffer\.create|Atomic\.make|([A-Z][A-Za-z_0-9]*\.)*create \(\))/ {
  n = split(FILENAME, parts, "/")
  m = parts[n]
  sub(/\.ml$/, "", m)
  name = line
  sub(/^let /, "", name)
  sub(/[ :=].*$/, "", name)
  print toupper(substr(m, 1, 1)) substr(m, 2) "." name
}
