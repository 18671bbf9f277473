let register_all () = ()
