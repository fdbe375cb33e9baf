let clear_all () = ()
